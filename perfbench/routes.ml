(* The two ways an item runs.

   [facade] is what a user calls: the public Ctwsdd entry point of the
   workload, from program text to answer.

   [traced] rebuilds the same route as a chain of calls into the layers'
   public functions, timing each call against its layer.  Every chain
   passes through every stage in [layers] order; a layer with no code
   path on a route runs an empty stage, so its busy time reads the
   timer's own cost.  Inside [Pipeline.compile_cnf] there is no public
   seam between a component's decomposition, vtree, clause schedule and
   conjoin steps, so on cnf-count that work is one row:
   [cnf_component], the per-component [compile_cnf ~preprocess:false]
   call. *)

type answer = { value : Oracle.value; size : int }

let now_ns () = Int64.to_float (Monotonic_clock.now ())

let fail e = failwith (Ctwsdd.Error.to_string e)

(* Probability weight of a lineage variable, as Prob.via reads it. *)
let weight (db : Pdb.t) v = db.Pdb.prob (Pdb.tuple_of_var v)

let facade (it : Gen.item) =
  match it.Gen.payload with
  | Gen.Lineage { query; db; _ } ->
    (match Ctwsdd.prob (Ucq.of_string query) db with
     | Ok a -> { value = Oracle.Prob a.Prob.probability; size = a.Prob.size }
     | Error e -> fail e)
  | Gen.Cnf { text; _ } ->
    (match Ctwsdd.compile_cnf (Dimacs.parse text) with
     | Ok r ->
       { value = Oracle.Count r.Pipeline.count;
         size =
           List.fold_left (fun s k -> s + k.Pipeline.k_size) 0 r.Pipeline.components }
     | Error e -> fail e)
  | Gen.Circ { text; max_steps; _ } ->
    (match
       Ctwsdd.compile ~vtree_strategy:`Balanced ~minimize:true ~max_steps
         (Circuit.of_string text)
     with
     | Ok r ->
       let m = r.Pipeline.manager and root = r.Pipeline.root in
       { value = Oracle.Count (Sdd.model_count m root); size = Sdd.size m root }
     | Error e -> fail e)

(* ------------------------------------------------------------------ *)
(* Traced chains                                                       *)
(* ------------------------------------------------------------------ *)

let layers =
  [| "input"; "preprocess"; "decompose"; "vtree"; "apply"; "cnf_component";
     "minimize"; "query" |]

let input = 0
let preprocess = 1
let decompose = 2
let vtree = 3
let apply = 4
let cnf_component = 5
let minimize = 6
let query = 7

(* Per-pass accumulators: busy nanoseconds per layer, and exact counts. *)
type acc = {
  busy_ns : float array;
  mutable wall_ns : float;  (** Σ traced chain wall time. *)
  mutable forced_vars : int;
  mutable components : int;
  mutable width_max : int;
  mutable tseitin_wins : int;
  mutable nodes_allocated : int;
  mutable live_nodes : int;
  mutable unique_hits : int;
  mutable unique_lookups : int;
  mutable and_hits : int;
  mutable and_lookups : int;
  mutable or_hits : int;
  mutable or_lookups : int;
  mutable compactions : int;
  mutable minimize_steps : int;
  mutable size_before : int;
  mutable size_after : int;
}

let acc () =
  { busy_ns = Array.make (Array.length layers) 0.; wall_ns = 0.;
    forced_vars = 0; components = 0; width_max = 0; tseitin_wins = 0;
    nodes_allocated = 0; live_nodes = 0; unique_hits = 0; unique_lookups = 0;
    and_hits = 0; and_lookups = 0; or_hits = 0; or_lookups = 0;
    compactions = 0; minimize_steps = 0; size_before = 0; size_after = 0 }

(* The exact counts of one pass, for the repeat check. *)
let counts a =
  [ a.forced_vars; a.components; a.width_max; a.tseitin_wins;
    a.nodes_allocated; a.live_nodes; a.unique_hits; a.unique_lookups;
    a.and_hits; a.and_lookups; a.or_hits; a.or_lookups; a.compactions;
    a.minimize_steps; a.size_before; a.size_after ]

let stage a layer f =
  let t0 = now_ns () in
  let r = f () in
  a.busy_ns.(layer) <- a.busy_ns.(layer) +. (now_ns () -. t0);
  r

let skip a layer = stage a layer ignore

(* Apply-layer counters of a returned manager, read after the chain's
   clock stopped. *)
let note_manager a m root =
  a.nodes_allocated <- a.nodes_allocated + Sdd.num_nodes_allocated m;
  a.live_nodes <- a.live_nodes + Sdd.node_count m root;
  a.compactions <- a.compactions + Sdd.compactions m;
  List.iter
    (fun { Obs.Cache.cache; hits; lookups; _ } ->
      match cache with
      | "sdd.unique" ->
        a.unique_hits <- a.unique_hits + hits;
        a.unique_lookups <- a.unique_lookups + lookups
      | "sdd.and_cache" ->
        a.and_hits <- a.and_hits + hits;
        a.and_lookups <- a.and_lookups + lookups
      | "sdd.or_cache" ->
        a.or_hits <- a.or_hits + hits;
        a.or_lookups <- a.or_lookups + lookups
      | _ -> ())
    (Sdd.stats m)

(* Prob.via with the default backend: the Lemma 1 vtree of the narrower
   of the direct and Tseitin-route decompositions for inversion-free
   queries (Pipeline.treedec_vtree), a balanced vtree otherwise. *)
let lineage_chain a text db =
  let q = stage a input (fun () -> Ucq.of_string text) in
  let c = stage a input (fun () -> Lineage.circuit q db) in
  skip a preprocess;
  let treedec = Qsafety.inversion_free q in
  let td =
    stage a decompose (fun () ->
        if not treedec then None
        else
          let direct = snd (Circuit.treewidth_upper c) in
          match Pipeline.tseitin_decomposition c with
          | Some td when Treedec.width td < Treedec.width direct -> Some (td, true)
          | _ -> Some (direct, false))
  in
  let vt =
    stage a vtree (fun () ->
        match td with
        | Some (td, _) -> Lemma1.vtree_of_decomposition c td
        | None -> Vtree.balanced (Circuit.variables c))
  in
  let m, root =
    stage a apply (fun () ->
        let m = Sdd.manager vt in
        (m, Sdd.compile_circuit m c))
  in
  skip a cnf_component;
  skip a minimize;
  let p, size =
    stage a query (fun () ->
        (Sdd.probability_ratio m root (weight db), Sdd.size m root))
  in
  let post () =
    (match td with
     | Some (td, tseitin) ->
       a.width_max <- max a.width_max (Treedec.width td);
       if tseitin then a.tseitin_wins <- a.tseitin_wins + 1
     | None -> ());
    note_manager a m root
  in
  ({ value = Oracle.Prob p; size }, post)

(* Pipeline.compile_cnf: preprocess, split, each component compiled by
   compile_cnf without preprocessing, counts multiplied by 2^free.  The
   facade fans components out over Obs.Worker.default_domains (), which
   CTWSDD_DOMAINS=1 pins to one; the chain runs them in turn. *)
let cnf_chain a text =
  let d = stage a input (fun () -> Dimacs.parse text) in
  let pre = stage a preprocess (fun () -> Cnf_preprocess.run d) in
  let comps, free, forced =
    match pre with
    | Cnf_preprocess.Unsat -> (None, 0, 0)
    | Cnf_preprocess.Simplified s ->
      let comps = stage a preprocess (fun () -> Cnf_preprocess.split s.Cnf_preprocess.cnf) in
      let unsat =
        List.exists (fun c -> c.Cnf_preprocess.comp_cnf.Dimacs.num_vars = 0) comps
      in
      ( (if unsat then None else Some comps),
        s.Cnf_preprocess.free_vars,
        List.length s.Cnf_preprocess.forced )
  in
  skip a decompose;
  skip a vtree;
  skip a apply;
  let results =
    stage a cnf_component (fun () ->
        match comps with
        | None -> []
        | Some comps ->
          List.map
            (fun comp ->
              match
                Ctwsdd.compile_cnf ~preprocess:false comp.Cnf_preprocess.comp_cnf
              with
              | Ok r -> r
              | Error e -> fail e)
            comps)
  in
  skip a minimize;
  let count =
    stage a query (fun () ->
        match comps with
        | None -> Bigint.zero
        | Some _ ->
          List.fold_left
            (fun acc r -> Bigint.mul acc r.Pipeline.count)
            (Bigint.pow2 free) results)
  in
  let parts = List.concat_map (fun r -> r.Pipeline.components) results in
  let size = List.fold_left (fun s k -> s + k.Pipeline.k_size) 0 parts in
  let post () =
    a.forced_vars <- a.forced_vars + forced;
    a.components <-
      a.components + (match comps with Some l -> List.length l | None -> 0);
    List.iter (fun k -> note_manager a k.Pipeline.k_manager k.Pipeline.k_root) parts
  in
  ({ value = Oracle.Count count; size }, post)

(* Pipeline.compile ~vtree_strategy:`Balanced ~minimize:true. *)
let circuit_chain a text max_steps =
  let c = stage a input (fun () -> Circuit.of_string text) in
  skip a preprocess;
  skip a decompose;
  let vt = stage a vtree (fun () -> Vtree.balanced (Circuit.variables c)) in
  let m, built =
    stage a apply (fun () ->
        let m = Sdd.manager vt in
        (m, Sdd.compile_circuit m c))
  in
  let before = Sdd.size m built in
  skip a cnf_component;
  let r =
    stage a minimize (fun () -> Vtree_search.minimize_manager ~max_steps m built)
  in
  let root = r.Vtree_search.best in
  let count, size =
    stage a query (fun () -> (Sdd.model_count m root, Sdd.size m root))
  in
  let post () =
    a.minimize_steps <- a.minimize_steps + r.Vtree_search.steps;
    a.size_before <- a.size_before + before;
    a.size_after <- a.size_after + size;
    note_manager a m root
  in
  ({ value = Oracle.Count count; size }, post)

let traced a (it : Gen.item) =
  let t0 = now_ns () in
  let answer, post =
    match it.Gen.payload with
    | Gen.Lineage { query; db; _ } -> lineage_chain a query db
    | Gen.Cnf { text; _ } -> cnf_chain a text
    | Gen.Circ { text; max_steps; _ } -> circuit_chain a text max_steps
  in
  a.wall_ns <- a.wall_ns +. (now_ns () -. t0);
  post ();
  answer

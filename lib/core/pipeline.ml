type vtree_strategy = [ `Right | `Balanced | `Treedec | `Search ]

let strategy_name = function
  | `Right -> "right"
  | `Balanced -> "balanced"
  | `Treedec -> "treedec"
  | `Search -> "search"

type result = {
  manager : Sdd.manager;
  root : Sdd.t;
  strategy : vtree_strategy;
  backend : Backend.resolved;
  backend_reason : string;
  degraded : Budget.reason option;
  minimize_steps : int;
}

(* Map a tree decomposition of the Tseitin CNF's primal graph back to a
   decomposition of the circuit's gate graph.  Tseitin names the signal
   of gate [i] either "_g<i>" (internal and constant gates) or the input
   variable itself, so the renaming is per-vertex and injective for
   builder-constructed circuits, and every wire (j, i) of the circuit
   appears in the clause relating gate [i] to its fanins — hence in some
   primal bag.  The primal graph also has fanin-fanin edges the circuit
   graph lacks, which only makes the mapped decomposition valid for a
   supergraph — harmless.  If the mapping misses a gate (duplicate input
   gates of a hand-assembled circuit), validation fails and the caller
   falls back to the direct decomposition. *)
let tseitin_decomposition ?budget c =
  let cnf = Tseitin.transform c in
  let g, names = Tseitin.primal_graph cnf in
  let gate_of_name = Hashtbl.create 64 in
  Array.iteri
    (fun i gate ->
      match gate with
      | Circuit.Var x -> Hashtbl.replace gate_of_name x i
      | _ -> Hashtbl.replace gate_of_name (Printf.sprintf "_g%d" i) i)
    c.Circuit.gates;
  let td = Treewidth.decomposition ?budget g in
  let map_bag bag =
    List.sort_uniq compare
      (List.filter_map (fun v -> Hashtbl.find_opt gate_of_name names.(v)) bag)
  in
  let td' =
    { Treedec.bags = Array.map map_bag td.Treedec.bags; tree = td.Treedec.tree }
  in
  match Treedec.validate (Circuit.underlying_graph c) td' with
  | Ok () -> Some td'
  | Error _ -> None

let treedec_vtree ?budget c =
  Obs.span "pipeline.treedec_vtree" @@ fun () ->
  let direct = snd (Circuit.treewidth_upper ?budget c) in
  let td, source =
    match tseitin_decomposition ?budget c with
    | Some td' when Treedec.width td' < Treedec.width direct -> (td', "tseitin")
    | _ -> (direct, "direct")
  in
  if !Obs.enabled_ref then begin
    Obs.incr ("pipeline.treedec." ^ source);
    Obs.hist_record "pipeline.treedec_width" (Treedec.width td)
  end;
  (Lemma1.vtree_of_decomposition c td, Treedec.width td)

(* Backend-parametric single-vtree compile: the backend decides the
   manager flavour ([`Obdd] right-linearizes the proposed vtree over
   its leaf order, [`Dnnf] drops canonicity) and the apply used. *)
let compile_with_vtree (module B : Backend.S) ?budget ?compact_every vt c =
  let m = B.create_manager ?budget ?compact_every vt in
  (m, B.compile_circuit m c)

(* The vtree the [`Treedec] rung proposes, per backend.  The canonical
   SDD wants the Lemma 1 shape; the linear backends want a {e linear}
   layout with decomposition locality instead — the nice-decomposition
   walk scrambles the leaf order (odd leaves down one flank, even up
   the other), which is exactly what an OBDD order must not do (it
   turns a bandwidth-3 CNF into exponentially many distinct
   subfunctions), and what the non-canonical d-DNNF apply cannot
   absorb either (no unique table to re-share the divergence).
   [Lemma1.obdd_order_of_circuit] is the pathwidth layout order both
   need. *)
let treedec_rung_vtree (module B : Backend.S) ~budget c =
  match B.backend with
  | `Sdd -> fst (treedec_vtree ~budget c)
  | `Obdd | `Dnnf -> Vtree.right_linear (Lemma1.obdd_order_of_circuit c)

(* One rung of the degradation ladder: compile [c] with the given
   strategy under [budget], raising [Budget.Exhausted] on a trip. *)
let compile_rung (module B : Backend.S) ~budget ?compact_every ?domains vars c
    = function
  | `Right ->
    compile_with_vtree (module B) ~budget ?compact_every
      (Vtree.right_linear vars) c
  | `Balanced ->
    compile_with_vtree (module B) ~budget ?compact_every (Vtree.balanced vars)
      c
  | `Treedec ->
    compile_with_vtree (module B) ~budget ?compact_every
      (treedec_rung_vtree (module B) ~budget c)
      c
  | `Search ->
    (* Compile the deterministic candidate set in parallel and keep the
       smallest result; the tie-break (first minimum in candidate order)
       makes the choice independent of [domains].  Each candidate gets
       an equal share of the rung's node allowance — also independent of
       [domains] — and candidates that trip are dropped individually;
       the rung only fails when none survives.  Candidates construct
       their own vtree inside the attempt (a trip during the treewidth
       heuristics drops that candidate, not the rung), cheapest vtree
       first so a near-expired deadline still yields a survivor when
       the attempts run sequentially. *)
    let vt_candidates =
      [ (fun () -> Vtree.balanced vars);
        (fun () -> Vtree.right_linear vars);
        (fun () -> treedec_rung_vtree (module B) ~budget c) ]
    in
    let per_candidate =
      Budget.split_nodes budget (List.length vt_candidates)
    in
    let domains =
      match domains with
      | Some d -> d
      | None -> Vtree_search.default_domains ()
    in
    let attempts =
      Vtree_search.parallel_map ~domains
        (fun mk_vt ->
          match
            let m =
              B.create_manager ~budget:per_candidate ?compact_every (mk_vt ())
            in
            let n = B.compile_circuit m c in
            (m, n, B.size m n)
          with
          | r -> Ok r
          | exception Budget.Exhausted r -> Error r)
        vt_candidates
    in
    let scored = List.filter_map Stdlib.Result.to_option attempts in
    if !Obs.enabled_ref then
      List.iteri
        (fun i attempt ->
          Obs.event "pipeline.search_candidate"
            (("index", Obs.Json.Int i)
            ::
            (match attempt with
             | Ok (m', _, s') ->
               [
                 ("size", Obs.Json.Int s');
                 ( "fingerprint",
                   Obs.Json.Int (Vtree.fingerprint (Sdd.vtree m')) );
               ]
             | Error r ->
               [ ("tripped", Obs.Json.String (Budget.reason_to_string r)) ])))
        attempts;
    (match scored with
     | [] ->
       let first_reason =
         List.find_map
           (function Error r -> Some r | Ok _ -> None)
           attempts
       in
       raise (Budget.Exhausted (Option.get first_reason))
     | hd :: tl ->
       let bm, bn, _ =
         List.fold_left
           (fun (bm, bn, bs) (m', n', s') ->
             if s' < bs then (m', n', s') else (bm, bn, bs))
           hd tl
       in
       (* The winner carries the split allowance; restore the rung's
          full budget for whatever comes next (minimization). *)
       Sdd.set_budget bm budget;
       (bm, bn))

(* Per-request sub-IDs: each compile runs as "<run>/c<seq>", so events
   and flight-recorder entries from concurrent or repeated compiles in
   one process remain distinguishable while keeping the process run ID
   as prefix. *)
let compile_seq = Atomic.make 0

let compile ?(budget = Budget.unlimited) ?(vtree_strategy = `Treedec)
    ?(backend = `Sdd) ?(minimize = false) ?max_steps ?domains ?compact_every c
    =
  Ctwsdd_error.guard @@ fun () ->
  let rid =
    Printf.sprintf "%s/c%d" (Obs.run_id ())
      (Atomic.fetch_and_add compile_seq 1)
  in
  Obs.with_run_id rid @@ fun () ->
  Obs.span "pipeline.compile" @@ fun () ->
  Attribution.with_center (Attribution.pipeline "compile") @@ fun () ->
  let vars = Circuit.variables c in
  if vars = [] then invalid_arg "Pipeline.compile: circuit has no variables";
  Budget.check budget;
  let chosen, backend_reason = Backend.resolve_circuit ~budget backend c in
  let (module B : Backend.S) = Backend.impl chosen in
  if minimize && chosen <> `Sdd then
    Ctwsdd_error.throw
      (Ctwsdd_error.Invalid_input
         (Printf.sprintf "minimize is supported only by the sdd backend (got %s)"
            (Backend.resolved_name chosen)));
  if !Obs.enabled_ref then
    Obs.event "pipeline.compile"
      [
        ("strategy", Obs.Json.String (strategy_name vtree_strategy));
        ("backend", Obs.Json.String B.name);
        ("minimize", Obs.Json.Bool minimize);
        ("budgeted", Obs.Json.Bool (not (Budget.is_unlimited budget)));
        ("vars", Obs.Json.Int (List.length vars));
        ("gates", Obs.Json.Int (Circuit.size c));
      ];
  (* Graceful degradation: when a rung trips its budget, fall through to
     the cheaper strategies instead of dying — `Search → `Treedec →
     `Balanced → `Right.  Only when the last rung also trips does the
     trip escape (and become an [Error]).  A successful compile after a
     step-down is reported with [degraded] set to the last trip. *)
  let ladder =
    match vtree_strategy with
    | `Search -> [ `Search; `Treedec; `Balanced; `Right ]
    | `Treedec -> [ `Treedec; `Balanced; `Right ]
    | `Balanced -> [ `Balanced; `Right ]
    | `Right -> [ `Right ]
  in
  let rec descend last = function
    | [] ->
      (* Unreachable with [last = None]: the ladder is non-empty. *)
      raise (Budget.Exhausted (Option.get last))
    | rung :: rest ->
      (match
         Attribution.with_center (Attribution.rung (strategy_name rung))
           (fun () ->
             compile_rung (module B) ~budget ?compact_every ?domains vars c
               rung)
       with
       | m, n -> (m, n, rung, last)
       | exception Budget.Exhausted r ->
         if rest <> [] then begin
           Obs.incr "pipeline.degrade";
           if !Obs.enabled_ref then
             Obs.event "pipeline.degrade"
               [
                 ("from", Obs.Json.String (strategy_name rung));
                 ("to", Obs.Json.String (strategy_name (List.hd rest)));
                 ("reason", Obs.Json.String (Budget.reason_to_string r));
               ]
         end;
         descend (Some r) rest)
  in
  let m, node, strategy, ladder_trip = descend None ladder in
  let root, minimize_steps, minimize_trip =
    if minimize then begin
      let a = Vtree_search.minimize_manager ~budget ?max_steps m node in
      (a.Vtree_search.best, a.Vtree_search.steps, a.Vtree_search.degraded)
    end
    else (node, 0, None)
  in
  (* The budget governed this compilation; hand the manager back free of
     it so follow-up queries (model counts, conditioning) don't trip on
     an expired deadline.  Callers can reinstall one with
     [Sdd.set_budget]. *)
  Sdd.set_budget m Budget.unlimited;
  let degraded =
    match ladder_trip with Some _ -> ladder_trip | None -> minimize_trip
  in
  {
    manager = m;
    root;
    strategy;
    backend = chosen;
    backend_reason;
    degraded;
    minimize_steps;
  }

(* ------------------------------------------------------------------ *)
(* SAT-scale CNF compilation: preprocessing, component decomposition,  *)
(* treewidth-driven clause scheduling                                  *)
(* ------------------------------------------------------------------ *)

type cnf_schedule = [ `Bags | `Clauses ]

let schedule_name = function `Bags -> "bags" | `Clauses -> "clauses"

type cnf_component = {
  k_manager : Sdd.manager;
  k_root : Sdd.t;
  k_vars : int;
  k_clauses : int;
  k_count : Bigint.t;
  k_size : int;
  k_degraded : Budget.reason option;
}

type cnf_result = {
  count : Bigint.t;
  components : cnf_component list;
  free_vars : int;
  forced_vars : int;
  preprocessed : bool;
  cnf_schedule : cnf_schedule;
  cnf_backend : Backend.resolved;
  cnf_backend_reason : string;
  cnf_degraded : Budget.reason option;
}

(* Primal graph of a CNF over 0-based variables: variables adjacent when
   they share a clause. *)
let cnf_primal_graph (d : Dimacs.t) =
  let g = Ugraph.create d.Dimacs.num_vars in
  List.iter
    (fun clause ->
      let vars =
        List.sort_uniq compare (List.map (fun l -> abs l - 1) clause)
      in
      let rec clique = function
        | [] -> ()
        | v :: rest ->
          List.iter (fun w -> Ugraph.add_edge g v w) rest;
          clique rest
      in
      clique vars)
    d.Dimacs.clauses;
  g

(* Heuristic tree decomposition sized to the component: components
   above 300 variables use min-degree alone, one elimination pass
   instead of two.  The cut-off fixes which decomposition each large
   CNF gets. *)
let var_treedec ?budget g =
  if Ugraph.num_vertices g <= 300 then Treewidth.decomposition ?budget g
  else Treedec.of_elimination (Elimination.run ?budget Min_degree g)

(* Rooted view of a tree decomposition (rooted at bag 0): children
   lists, a post-order over bags, the bag ids containing each variable,
   and the set of variables introduced (topmost occurrence) per bag. *)
type rooted_treedec = {
  td : Treedec.t;
  children : int list array;
  post_index : int array;  (** [post_index.(b)]: position of bag [b]. *)
  bags_of_var : int list array;  (** ascending bag ids per 0-based var. *)
  intro : int list array;  (** 0-based vars introduced at each bag. *)
}

let root_treedec n_vars (td : Treedec.t) =
  let nb = Treedec.num_bags td in
  let adj = Array.make nb [] in
  List.iter
    (fun (a, b) ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    td.Treedec.tree;
  let parent = Array.make nb (-1) in
  let children = Array.make nb [] in
  let order = Array.make nb 0 in
  let visited = Array.make nb false in
  (* Iterative DFS from bag 0; [order] records pre-order, post-order is
     derived by a second pass over the explicit stack discipline. *)
  let post = Array.make nb 0 in
  let post_n = ref 0 in
  let stack = ref [ (0, false) ] in
  visited.(0) <- true;
  let pre_n = ref 0 in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | (b, processed) :: rest ->
      stack := rest;
      if processed then begin
        post.(b) <- !post_n;
        incr post_n
      end
      else begin
        order.(!pre_n) <- b;
        incr pre_n;
        stack := (b, true) :: !stack;
        List.iter
          (fun c ->
            if not visited.(c) then begin
              visited.(c) <- true;
              parent.(c) <- b;
              children.(b) <- c :: children.(b);
              stack := (c, false) :: !stack
            end)
          adj.(b)
      end
  done;
  let bags_of_var = Array.make n_vars [] in
  Array.iteri
    (fun b bag -> List.iter (fun v -> bags_of_var.(v) <- b :: bags_of_var.(v)) bag)
    td.Treedec.bags;
  Array.iteri (fun v bs -> bags_of_var.(v) <- List.sort compare bs) bags_of_var;
  let intro = Array.make nb [] in
  Array.iteri
    (fun b bag ->
      let pbag = if parent.(b) < 0 then [] else td.Treedec.bags.(parent.(b)) in
      List.iter
        (fun v -> if not (List.mem v pbag) then intro.(b) <- v :: intro.(b))
        bag)
    td.Treedec.bags;
  { td; children; post_index = post; bags_of_var; intro }

(* Lemma-1-style vtree straight from a variable-level decomposition:
   attach each variable's leaf at the bag introducing it (its topmost
   bag — unique by the connectedness property) and combine bottom-up,
   so variables sharing a bag subtree end up under one vtree subtree. *)
let vtree_of_rooted rt (names : string array) =
  let rec combine = function
    | [] -> None
    | [ s ] -> Some s
    | shapes ->
      let n = List.length shapes in
      let rec take k = function
        | xs when k = 0 -> ([], xs)
        | x :: xs ->
          let a, b = take (k - 1) xs in
          (x :: a, b)
        | [] -> ([], [])
      in
      let a, b = take (n / 2) shapes in
      (match (combine a, combine b) with
       | Some sa, Some sb -> Some (Vtree.N (sa, sb))
       | Some s, None | None, Some s -> Some s
       | None, None -> None)
  in
  let rec shape b =
    let leaves = List.map (fun v -> Vtree.L names.(v)) rt.intro.(b) in
    let subs = List.filter_map shape rt.children.(b) in
    combine (leaves @ subs)
  in
  match shape 0 with
  | Some s -> Vtree.of_shape s
  | None -> invalid_arg "Pipeline.vtree_of_rooted: decomposition has no variables"

(* Treewidth-driven clause schedule: every clause is a clique of the
   primal graph, hence contained in some bag; ordering clauses by the
   post-order position of a hosting bag conjoins bag-by-bag bottom-up,
   keeping intermediate SDDs local to vtree subtrees. *)
let bag_schedule rt clauses =
  let host clause =
    match clause with
    | [] -> (max_int, -1)
    | l :: _ ->
      let vars = List.sort_uniq compare (List.map (fun l -> abs l - 1) clause) in
      let subset bag = List.for_all (fun v -> List.mem v bag) vars in
      let candidates = rt.bags_of_var.(abs l - 1) in
      List.fold_left
        (fun ((best, _) as acc) b ->
          if rt.post_index.(b) < best && subset rt.td.Treedec.bags.(b) then
            (rt.post_index.(b), b)
          else acc)
        (max_int, -1) candidates
  in
  (* The sort key is [(post, clause)] — identical to the pre-annotation
     schedule, so tie-breaking (and therefore node counts) is unchanged;
     the hosting bag rides along only to label attribution centers. *)
  List.map (fun c -> let p, b = host c in ((p, c), b)) clauses
  |> List.stable_sort (fun (k1, _) (k2, _) -> compare k1 k2)
  |> List.map (fun ((p, c), b) ->
         let w = if b >= 0 then List.length rt.td.Treedec.bags.(b) else 0 in
         (p, w, c))

(* One rung of the per-component ladder: build the vtree, conjoin the
   clauses in the scheduled order.  Raises [Budget.Exhausted] on a trip
   (the manager is dropped whole, so a mid-component trip never leaks a
   half-built state). *)
let compile_component_rung (module B : Backend.S) ~budget ~comp ?compact_every
    (names : string array) (d : Dimacs.t) rung =
  let unscheduled clauses = List.map (fun c -> (-1, 0, c)) clauses in
  let vt, sched =
    match rung with
    | `Bags ->
      let g = cnf_primal_graph d in
      let rt = root_treedec d.Dimacs.num_vars (var_treedec ~budget g) in
      (vtree_of_rooted rt names, bag_schedule rt d.Dimacs.clauses)
    | `Clauses ->
      let g = cnf_primal_graph d in
      let rt = root_treedec d.Dimacs.num_vars (var_treedec ~budget g) in
      (vtree_of_rooted rt names, unscheduled d.Dimacs.clauses)
    | `Balanced ->
      (Vtree.balanced (Array.to_list names), unscheduled d.Dimacs.clauses)
    | `Right ->
      (Vtree.right_linear (Array.to_list names), unscheduled d.Dimacs.clauses)
  in
  let m = B.create_manager ~budget ?compact_every vt in
  let conjoin_clause acc clause =
    Budget.poll budget;
    let cl =
      List.fold_left
        (fun acc l -> B.disjoin m acc (B.literal m names.(abs l - 1) (l > 0)))
        (Sdd.false_ m) clause
    in
    (* Compaction checkpoint (opt-in): the running conjunction is the
       only live root between clauses, so dead apply intermediates
       from earlier clauses can be reclaimed here. *)
    Sdd.maybe_compact m (B.conjoin m acc cl)
  in
  let idx = ref (-1) in
  let root =
    List.fold_left
      (fun acc (bag, width, clause) ->
        incr idx;
        if not (Attribution.enabled ()) then conjoin_clause acc clause
        else begin
          (* Bag center outside, clause center inside: charges reach
             both, so per-bag node totals partition the clause loop's
             allocations (the explain report's width-vs-size view) and
             hot clauses stay individually visible. *)
          let step () =
            Attribution.with_center (Attribution.clause ~component:comp !idx)
              (fun () -> conjoin_clause acc clause)
          in
          if bag >= 0 then
            Attribution.with_center (Attribution.bag ~component:comp bag)
              (fun () ->
                Attribution.set_width width;
                step ())
          else step ()
        end)
      (Sdd.true_ m) sched
  in
  (m, root)

let cnf_rung_name = function
  | `Bags -> "bags"
  | `Clauses -> "clauses"
  | `Balanced -> "balanced"
  | `Right -> "right"

(* Compile one component under its budget share, degrading through
   cheaper vtrees/schedules on budget trips (mirror of the circuit
   ladder): treedec+schedule → balanced → right-linear. *)
let compile_component (module B : Backend.S) ~budget ~schedule ~comp
    ?compact_every (names : string array) (d : Dimacs.t) =
  let ladder =
    match schedule with
    | `Bags -> [ `Bags; `Balanced; `Right ]
    | `Clauses -> [ `Clauses; `Balanced; `Right ]
  in
  let rec descend last = function
    | [] -> raise (Budget.Exhausted (Option.get last))
    | rung :: rest ->
      (match
         Attribution.with_center (Attribution.rung (cnf_rung_name rung))
           (fun () ->
             compile_component_rung (module B) ~budget ~comp ?compact_every
               names d rung)
       with
       | m, root -> (m, root, last)
       | exception Budget.Exhausted r ->
         if rest = [] then raise (Budget.Exhausted r)
         else begin
           Obs.incr "pipeline.degrade";
           if !Obs.enabled_ref then
             Obs.event "pipeline.component_degrade"
               [
                 ("from", Obs.Json.String (cnf_rung_name rung));
                 ("to", Obs.Json.String (cnf_rung_name (List.hd rest)));
                 ("reason", Obs.Json.String (Budget.reason_to_string r));
               ];
           descend (Some r) rest
         end)
  in
  descend None ladder

let compile_cnf ?(budget = Budget.unlimited) ?(preprocess = true)
    ?(schedule = `Bags) ?(backend = `Sdd) ?domains ?compact_every
    (d : Dimacs.t) =
  Ctwsdd_error.guard @@ fun () ->
  let rid =
    Printf.sprintf "%s/c%d" (Obs.run_id ())
      (Atomic.fetch_and_add compile_seq 1)
  in
  Obs.with_run_id rid @@ fun () ->
  Obs.span "pipeline.compile_cnf" @@ fun () ->
  Attribution.with_center (Attribution.pipeline "compile_cnf") @@ fun () ->
  Budget.check budget;
  let chosen, backend_reason = Backend.resolve_cnf backend in
  let (module B : Backend.S) = Backend.impl chosen in
  if !Obs.enabled_ref then
    Obs.event "pipeline.compile_cnf"
      [
        ("vars", Obs.Json.Int d.Dimacs.num_vars);
        ("clauses", Obs.Json.Int (List.length d.Dimacs.clauses));
        ("preprocess", Obs.Json.Bool preprocess);
        ("schedule", Obs.Json.String (schedule_name schedule));
        ("backend", Obs.Json.String B.name);
      ];
  let unsat =
    {
      count = Bigint.zero;
      components = [];
      free_vars = 0;
      forced_vars = 0;
      preprocessed = preprocess;
      cnf_schedule = schedule;
      cnf_backend = chosen;
      cnf_backend_reason = backend_reason;
      cnf_degraded = None;
    }
  in
  let proceed base to_original free forced_vars =
    let comps = Obs.span "pipeline.cnf_split" (fun () -> Cnf_preprocess.split base) in
    (* A variable-free component can only be a bundle of empty clauses —
       unsatisfiable (non-empty empty-clause lists only reach here with
       preprocessing off). *)
    if List.exists (fun c -> c.Cnf_preprocess.comp_cnf.Dimacs.num_vars = 0) comps
    then unsat
    else begin
      let k = List.length comps in
      Obs.incr ~by:k "cnf.components";
      let per_budget = Budget.split_nodes budget k in
      let domains =
        match domains with
        | Some d -> max 1 (min d k)
        | None -> min (Vtree_search.default_domains ()) (max 1 k)
      in
      let jobs = List.mapi (fun i c -> (i, c)) comps in
      let attempts =
        Vtree_search.parallel_map ~domains
          (fun (i, comp) ->
            (* Sub-attribute every span/event of this component to
               <run>/k<i>, so Perfetto traces show which component each
               domain was busy with. *)
            Obs.with_run_id (Printf.sprintf "%s/k%d" rid i) @@ fun () ->
            Obs.span "pipeline.component" @@ fun () ->
            let cnf = comp.Cnf_preprocess.comp_cnf in
            let names =
              Array.map
                (fun v -> Dimacs.var_name (to_original v))
                comp.Cnf_preprocess.comp_var_of_new
            in
            if !Obs.enabled_ref then
              Obs.hist_record "cnf.component_size" cnf.Dimacs.num_vars;
            match
              Attribution.with_center (Attribution.component i) (fun () ->
                  compile_component (module B) ~budget:per_budget ~schedule
                    ~comp:i ?compact_every names cnf)
            with
            | m, root, degraded ->
              let size = Sdd.size m root in
              let count = Sdd.model_count m root in
              Sdd.set_budget m Budget.unlimited;
              if !Obs.enabled_ref then
                Obs.event "pipeline.component"
                  [
                    ("component", Obs.Json.Int i);
                    ("vars", Obs.Json.Int cnf.Dimacs.num_vars);
                    ("clauses", Obs.Json.Int (List.length cnf.Dimacs.clauses));
                    ("size", Obs.Json.Int size);
                    ( "degraded",
                      match degraded with
                      | None -> Obs.Json.Bool false
                      | Some r -> Obs.Json.String (Budget.reason_to_string r) );
                  ];
              Ok
                {
                  k_manager = m;
                  k_root = root;
                  k_vars = cnf.Dimacs.num_vars;
                  k_clauses = List.length cnf.Dimacs.clauses;
                  k_count = count;
                  k_size = size;
                  k_degraded = degraded;
                }
            | exception Budget.Exhausted r ->
              if !Obs.enabled_ref then
                Obs.event "pipeline.component"
                  [
                    ("component", Obs.Json.Int i);
                    ("vars", Obs.Json.Int cnf.Dimacs.num_vars);
                    ("tripped", Obs.Json.String (Budget.reason_to_string r));
                  ];
              Error r)
          jobs
      in
      (match
         List.find_map (function Error r -> Some r | Ok _ -> None) attempts
       with
       | Some r -> raise (Budget.Exhausted r)
       | None -> ());
      let components =
        List.map (function Ok c -> c | Error _ -> assert false) attempts
      in
      let count =
        List.fold_left
          (fun acc c -> Bigint.mul acc c.k_count)
          (Bigint.pow2 free) components
      in
      {
        count;
        components;
        free_vars = free;
        forced_vars;
        preprocessed = preprocess;
        cnf_schedule = schedule;
        cnf_backend = chosen;
        cnf_backend_reason = backend_reason;
        cnf_degraded =
          List.find_map (fun c -> c.k_degraded) components;
      }
    end
  in
  if preprocess then begin
    match Obs.span "pipeline.cnf_preprocess" (fun () -> Cnf_preprocess.run d) with
    | Cnf_preprocess.Unsat -> unsat
    | Cnf_preprocess.Simplified s ->
      if !Obs.enabled_ref then
        Obs.event "pipeline.cnf_preprocess"
          [
            ("vars", Obs.Json.Int s.Cnf_preprocess.cnf.Dimacs.num_vars);
            ( "clauses",
              Obs.Json.Int (List.length s.Cnf_preprocess.cnf.Dimacs.clauses) );
            ("forced", Obs.Json.Int (List.length s.Cnf_preprocess.forced));
            ("free", Obs.Json.Int s.Cnf_preprocess.free_vars);
            ("tautologies", Obs.Json.Int s.Cnf_preprocess.removed_tautologies);
            ("duplicates", Obs.Json.Int s.Cnf_preprocess.removed_duplicates);
          ];
      proceed s.Cnf_preprocess.cnf
        (fun v -> s.Cnf_preprocess.var_of_new.(v - 1))
        s.Cnf_preprocess.free_vars
        (List.length s.Cnf_preprocess.forced)
  end
  else if List.exists (fun c -> c = []) d.Dimacs.clauses then unsat
  else proceed d (fun v -> v) (Dimacs.free_var_count d) 0

let conjoin_components ?domains r =
  match r.components with
  | [] -> None
  | comps ->
    let vt, offsets =
      Vtree.of_forest (List.map (fun c -> Sdd.vtree c.k_manager) comps)
    in
    let m = Sdd.manager vt in
    let roots =
      List.mapi
        (fun i c ->
          Sdd.import ~dst:m
            ~map:(fun v -> v + offsets.(i))
            c.k_manager c.k_root)
        comps
    in
    (* The imported roots live in disjoint vtree subtrees, so the
       parallel tree reduction conjoins independent sub-SDDs on separate
       domains; the default stays the sequential fold (bit-identical to
       the historical behaviour). *)
    let root =
      match domains with
      | Some d when d > 1 && List.length roots > 1 ->
        Sdd.conjoin_parallel ~domains:d m roots
      | _ -> Sdd.conjoin_list m roots
    in
    Some (m, root)

let compile_exn ?budget ?vtree_strategy ?minimize ?max_steps ?domains
    ?backend ?compact_every c =
  match
    compile ?budget ?vtree_strategy ?minimize ?max_steps ?domains ?backend
      ?compact_every c
  with
  | Error e -> Ctwsdd_error.throw e
  | Ok { degraded = Some r; _ } -> raise (Budget.Exhausted r)
  | Ok r -> (r.manager, r.root)

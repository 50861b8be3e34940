(* E22 — backend panorama at scale: who wins, by what growth rate.

   The paper's Figure 1 inclusions say where each target should win:
   pathwidth-bounded families fit OBDDs (CPW(O(1)) = OBDD(O(1))),
   treewidth-bounded ones fit SDDs (CTW(O(1)) = SDD(O(1))), and when
   only the count is needed canonicity is pure overhead — the d-DNNF
   extractor skips the unique table and compression entirely.

   Three tables measure those separations empirically on the E18
   circuit families and the E19 CNF families, all through the
   backend-agnostic [Pipeline.compile ~backend] /
   [Pipeline.compile_cnf ~backend] interface:

     1. circuit families compiled under `Sdd / `Obdd / `Dnnf —
        size, width and wall time per backend, winner by size;
     2. counting-only CNF compilation, `Sdd vs `Dnnf — the price of
        canonicity when nobody asks for it;
     3. what `Auto resolves to on each workload, with its reason.

   Spans land in BENCH_E22.json (keys prefixed "e22.") for the
   `compare.exe --gate` regression tracking like E17–E21.  Keep the
   workload fixed: changing it invalidates the trajectory. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000.0 *. (Unix.gettimeofday () -. t0))

let compile ~backend c =
  match Pipeline.compile ~backend c with
  | Ok r -> r
  | Error e -> failwith ("E22: compile failed: " ^ Ctwsdd_error.to_string e)

let compile_cnf ~backend d =
  match Pipeline.compile_cnf ~backend d with
  | Ok r -> r
  | Error e -> failwith ("E22: compile_cnf failed: " ^ Ctwsdd_error.to_string e)

let cnf ~vars clauses = { Dimacs.num_vars = vars; clauses }

(* (¬x1∨x2) ∧ …: n+1 models over n variables (as in E19). *)
let chain_dimacs n =
  cnf ~vars:n (List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ]))

let band_dimacs ~width n =
  cnf ~vars:n
    (List.init (n - width + 1) (fun i ->
         List.init width (fun j ->
             if j mod 2 = 0 then i + j + 1 else -(i + j + 1))))

(* The circuit families: the E18 pipeline set, scaled past the point
   where the truth-table routes of the early experiments give up.  The
   linear backends go far beyond these n — E1's panorama and the CNF
   table below stretch them further. *)
let circuit_families =
  [
    ("chain-impl", [ 32; 64; 128; 256 ], Generators.chain_implications);
    ("parity-chain", [ 32; 64; 128 ], Generators.parity_chain);
    ("band3-cnf", [ 32; 64 ], Generators.band_cnf ~width:3);
    ("ladder-4", [ 16; 32 ], Generators.ladder ~tracks:4);
    ( "window-4",
      [ 24; 32 ],
      fun n ->
        Generators.random_window ~seed:11 ~window:4 ~vars:n ~gates:(2 * n)
    );
  ]

let backends : (Backend.resolved * string) list =
  [ (`Sdd, "sdd"); (`Obdd, "obdd"); (`Dnnf, "dnnf") ]

let run () =
  Table.section "E22 — backend panorama (who wins, by what growth rate)";

  (* 1. Circuit families under all three backends.  The reference count
     comes from the SDD run; the others must agree — cross-backend
     parity is an assertion here, not a column. *)
  let rows =
    List.concat_map
      (fun (fam, sizes, mk) ->
        List.map
          (fun n ->
            let c = mk n in
            let per =
              List.map
                (fun (b, bname) ->
                  let r, ms =
                    time (fun () ->
                        Obs.span ("e22.circuit_" ^ bname) @@ fun () ->
                        compile ~backend:(b :> Backend.tag) c)
                  in
                  let (module B : Backend.S) = Backend.impl r.Pipeline.backend in
                  let size = B.size r.Pipeline.manager r.Pipeline.root in
                  let width = B.width r.Pipeline.manager r.Pipeline.root in
                  let count =
                    Sdd.model_count r.Pipeline.manager r.Pipeline.root
                  in
                  (bname, size, width, ms, count))
                backends
            in
            (match per with
            | (_, _, _, _, ref_count) :: rest ->
              List.iter
                (fun (bname, _, _, _, count) ->
                  if not (Bigint.equal count ref_count) then
                    failwith
                      (Printf.sprintf "E22: %s-%d: %s count disagrees" fam n
                         bname))
                rest
            | [] -> ());
            let winner =
              List.fold_left
                (fun (wb, ws) (bname, size, _, _, _) ->
                  if size < ws then (bname, size) else (wb, ws))
                ("-", max_int) per
              |> fst
            in
            [ fam; Table.fi n ]
            @ List.concat_map
                (fun (_, size, width, ms, _) ->
                  [ Table.fi size; Table.fi width; Printf.sprintf "%.1f" ms ])
                per
            @ [ winner ])
          sizes)
      circuit_families
  in
  Table.print
    ~title:
      "circuit families: pathwidth-bounded rows go to obdd, \
       treewidth-bounded ones to sdd (winner = smallest size)"
    ~header:
      [ "family"; "n"; "sdd sz"; "sdd w"; "sdd ms"; "obdd sz"; "obdd w";
        "obdd ms"; "dnnf sz"; "dnnf w"; "dnnf ms"; "winner" ]
    rows;

  (* 2. Counting-only CNF: the cost of canonicity nobody asked for.
     Same count either way; the dnnf column skips the unique table and
     compression and should grow a measurable lead with n. *)
  let rows =
    List.map
      (fun (name, d) ->
        let rs, ms_sdd =
          time (fun () ->
              Obs.span "e22.cnf_sdd" @@ fun () -> compile_cnf ~backend:`Sdd d)
        in
        let rd, ms_dnnf =
          time (fun () ->
              Obs.span "e22.cnf_dnnf" @@ fun () -> compile_cnf ~backend:`Dnnf d)
        in
        if not (Bigint.equal rs.Pipeline.count rd.Pipeline.count) then
          failwith ("E22: " ^ name ^ ": sdd and dnnf counts disagree");
        [
          name;
          Table.fi d.Dimacs.num_vars;
          Printf.sprintf "%.1f" ms_sdd;
          Printf.sprintf "%.1f" ms_dnnf;
          Printf.sprintf "%.2fx" (ms_sdd /. Float.max 0.001 ms_dnnf);
          Table.fi (String.length (Bigint.to_string rs.Pipeline.count));
        ])
      [
        ("chain-1000", chain_dimacs 1000);
        ("chain-2000", chain_dimacs 2000);
        ("chain-4000", chain_dimacs 4000);
        ("band3-400", band_dimacs ~width:3 400);
        ("band3-800", band_dimacs ~width:3 800);
      ]
  in
  Table.print
    ~title:"counting-only CNF: sdd canonicity vs the dnnf fast path"
    ~header:
      [ "family"; "n"; "sdd ms"; "dnnf ms"; "sdd/dnnf"; "count digits" ]
    rows;

  (* 3. Auto selection: the per-workload choices and their reasons, as
     they land in ctwsdd-metrics events and `ctwsdd explain`. *)
  let rows =
    List.map
      (fun (name, chosen, reason) -> [ name; chosen; reason ])
      (List.map
         (fun (fam, sizes, mk) ->
           let n = List.hd sizes in
           let chosen, reason = Backend.resolve_circuit `Auto (mk n) in
           ( Printf.sprintf "%s-%d" fam n,
             Backend.resolved_name chosen,
             reason ))
         circuit_families
      @ [
          (let chosen, reason = Backend.resolve_cnf `Auto in
           ("cnf (any)", Backend.resolved_name chosen, reason));
        ])
  in
  Table.print
    ~title:"`Auto resolution per workload (recorded in metrics + explain)"
    ~header:[ "workload"; "chosen"; "reason" ]
    rows;
  Table.note
    "paper: CPW(O(1)) = OBDD(O(1)) ⊆ CTW(O(1)) = SDD(O(1)); the dnnf \
     column prices canonicity on counting-only workloads."

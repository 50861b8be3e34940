(* The backend-agnostic compilation interface: SDD / OBDD / d-DNNF
   targets agree on every count and probability, the OBDD
   specialization matches the toy Bdd module level for level, the
   non-canonical d-DNNF manager keeps its invariants, and [`Auto]
   resolution is deterministic and audited. *)

open Test_util

let tags : (string * Backend.tag) list =
  [ ("sdd", `Sdd); ("obdd", `Obdd); ("dnnf", `Dnnf); ("auto", `Auto) ]

let count_with_backend ?budget ?domains backend c =
  let m, node = Pipeline.compile_exn ?budget ?domains ~backend c in
  Sdd.model_count m node

(* The brute oracle: tabulate the circuit (fine at <= 8 variables). *)
let brute_count c = Boolfun.count_models (Circuit.to_boolfun c)

let small_circuits =
  [
    Generators.chain_implications 8;
    Generators.parity_chain 7;
    Generators.band_cnf ~width:3 8;
    Generators.random_window ~seed:11 ~window:3 ~vars:7 ~gates:20;
    Generators.random_window ~seed:12 ~window:4 ~vars:8 ~gates:24;
    Generators.random_formula ~seed:13 ~vars:6 ~depth:4;
    Generators.random_formula ~seed:14 ~vars:8 ~depth:5;
    Circuit.of_string "(or (and x y) (not z))";
  ]

(* E18/E19-style structured families, past tabulation comfort: the
   backends must agree with each other (closed-form counts where
   known). *)
let structured_circuits =
  [
    ("chain-30", Generators.chain_implications 30, Some (Bigint.of_int 31));
    ("parity-24", Generators.parity_chain 24, Some (Bigint.pow2 23));
    ("band3-20", Generators.band_cnf ~width:3 20, None);
    ( "window-16",
      Generators.random_window ~seed:5 ~window:4 ~vars:16 ~gates:48,
      None );
  ]

let agreement_suite =
  [
    case "all backends match the brute oracle (random <= 8 vars)" (fun () ->
        List.iteri
          (fun i c ->
            let expected = brute_count c in
            List.iter
              (fun (name, b) ->
                check bigint
                  (Printf.sprintf "circuit %d via %s" i name)
                  expected (count_with_backend b c))
              tags)
          small_circuits);
    case "all backends agree on structured families" (fun () ->
        List.iter
          (fun (fam, c, closed) ->
            let reference = count_with_backend `Sdd c in
            Option.iter
              (fun expected ->
                check bigint (fam ^ " closed form") expected reference)
              closed;
            List.iter
              (fun (name, b) ->
                check bigint
                  (Printf.sprintf "%s via %s" fam name)
                  reference (count_with_backend b c))
              tags)
          structured_circuits);
    case "probabilities agree across backends" (fun () ->
        let weights v = Ratio.of_ints 1 (1 + (String.length v mod 3)) in
        List.iteri
          (fun i c ->
            let m0, n0 = Pipeline.compile_exn ~backend:`Sdd c in
            let expected = Sdd.probability_ratio m0 n0 weights in
            List.iter
              (fun (name, b) ->
                let m, node = Pipeline.compile_exn ~backend:b c in
                check ratio
                  (Printf.sprintf "circuit %d via %s" i name)
                  expected
                  (Sdd.probability_ratio m node weights))
              tags)
          [
            Generators.band_cnf ~width:3 9;
            Generators.random_window ~seed:21 ~window:3 ~vars:8 ~gates:20;
          ]);
    case "budget-tripped compiles stay exact (anytime agreement)" (fun () ->
        let c = Generators.chain_implications 24 in
        let expected = Bigint.of_int 25 in
        List.iter
          (fun (name, b) ->
            let budget = Budget.create ~max_nodes:200 () in
            match Pipeline.compile ~budget ~backend:b c with
            | Ok r ->
              (* Degraded or not, the compiled form is a valid
                 representation of the input: the count is exact. *)
              check bigint
                (name ^ " anytime count")
                expected
                (Sdd.model_count r.Pipeline.manager r.Pipeline.root)
            | Error e ->
              (match e with
               | Ctwsdd_error.Node_limit -> ()
               | e -> Alcotest.fail ("unexpected error " ^ Ctwsdd_error.to_string e)))
          tags);
    case "cnf pipeline counts agree across backends" (fun () ->
        (* Two disjoint 11-variable implication chains, 12 models each
           (n-clause chains over n+1 variables): 12 * 12 models. *)
        let clauses =
          List.init 10 (fun i -> [ -(i + 1); i + 2 ])
          @ List.init 10 (fun i -> [ -(i + 12); i + 13 ])
        in
        let d = { Dimacs.num_vars = 22; clauses } in
        let expected = Bigint.of_int 144 in
        List.iter
          (fun (name, b) ->
            match Pipeline.compile_cnf ~backend:b d with
            | Error e -> Alcotest.fail (name ^ ": " ^ Ctwsdd_error.to_string e)
            | Ok r -> check bigint (name ^ " count") expected r.Pipeline.count)
          tags);
  ]

let obdd_suite =
  [
    case "Obdd width and size match the toy Bdd module" (fun () ->
        List.iteri
          (fun i c ->
            let order = Circuit.variables c in
            let bm = Bdd.manager order in
            let bnode = Bdd.compile_circuit bm c in
            let m = Sdd.Obdd.manager order in
            let node = Sdd.Obdd.compile_circuit m c in
            checki
              (Printf.sprintf "circuit %d width" i)
              (Bdd.width bm bnode) (Sdd.Obdd.width m node);
            check bigint
              (Printf.sprintf "circuit %d count" i)
              (Bdd.model_count bm bnode)
              (Sdd.model_count m node))
          small_circuits);
    case "Obdd level profile covers every level" (fun () ->
        let c = Generators.parity_chain 6 in
        let m = Sdd.Obdd.manager (Circuit.variables c) in
        let node = Sdd.Obdd.compile_circuit m c in
        let profile = Sdd.Obdd.level_profile m node in
        checki "levels" (List.length (Circuit.variables c))
          (List.length profile);
        checkb "width is the profile max" true
          (Sdd.Obdd.width m node
          = List.fold_left (fun acc (_, n) -> max acc n) 0 profile));
    case "Obdd entry points reject non-right-linear managers" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "a"; "b"; "c"; "d" ]) in
        let a = Sdd.literal m "a" true and b = Sdd.literal m "b" true in
        Alcotest.check_raises "conjoin"
          (Invalid_argument
             "Sdd.Obdd.conjoin: needs a canonical manager over a \
              right-linear vtree")
          (fun () -> ignore (Sdd.Obdd.conjoin m a b)));
    case "minimize is rejected off the sdd backend" (fun () ->
        let c = Generators.chain_implications 6 in
        List.iter
          (fun b ->
            match Pipeline.compile ~backend:b ~minimize:true c with
            | Error (Ctwsdd_error.Invalid_input msg) ->
              checkb "mentions minimize" true
                (String.length msg >= 8 && String.sub msg 0 8 = "minimize")
            | Ok _ -> Alcotest.fail "minimize accepted off sdd"
            | Error e -> Alcotest.fail (Ctwsdd_error.to_string e))
          [ `Obdd; `Dnnf ]);
  ]

let dnnf_suite =
  [
    case "dnnf managers are marked non-canonical" (fun () ->
        let vt = Vtree.balanced (small_vars 4) in
        checkb "dnnf" false (Sdd.canonical (Sdd.dnnf_manager vt));
        checkb "sdd" true (Sdd.canonical (Sdd.manager vt)));
    case "dynamic edits require a canonical manager" (fun () ->
        let c = Generators.chain_implications 6 in
        let m = Sdd.dnnf_manager (Vtree.balanced (Circuit.variables c)) in
        let root = Sdd.compile_circuit m c in
        match Vtree.local_moves_with (Sdd.vtree m) with
        | [] -> Alcotest.fail "no local moves on a 6-leaf vtree"
        | (mv, _) :: _ ->
          Alcotest.check_raises "apply_move"
            (Invalid_argument
               "Sdd.apply_move: dynamic edits require a canonical manager")
            (fun () -> ignore (Sdd.apply_move m mv root)));
  ]

let auto_suite =
  [
    case "explicit tags resolve to themselves" (fun () ->
        let c = Generators.chain_implications 6 in
        List.iter
          (fun (name, b) ->
            let chosen, reason = Backend.resolve_circuit b c in
            checks (name ^ " reason") "requested" reason;
            checkb (name ^ " chosen") true ((chosen :> Backend.tag) = b))
          [ ("sdd", `Sdd); ("obdd", `Obdd); ("dnnf", `Dnnf) ]);
    case "auto picks obdd on path-shaped circuits, deterministically"
      (fun () ->
        let c = Generators.chain_implications 20 in
        let chosen, _ = Backend.resolve_circuit `Auto c in
        checkb "path -> obdd" true (chosen = `Obdd);
        (* Determinism across repeated resolutions and across the
           [`Search] strategy's 1-vs-N domain parallelism. *)
        List.iter
          (fun domains ->
            match
              Pipeline.compile ~backend:`Auto ~vtree_strategy:`Search ~domains
                c
            with
            | Error e -> Alcotest.fail (Ctwsdd_error.to_string e)
            | Ok r ->
              checkb
                (Printf.sprintf "domains %d" domains)
                true
                (r.Pipeline.backend = chosen))
          [ 1; 4 ]);
    case "auto with counting_only picks dnnf" (fun () ->
        let c = Generators.band_cnf ~width:3 10 in
        let chosen, _ =
          Backend.resolve_circuit ~counting_only:true `Auto c
        in
        checkb "counting -> dnnf" true (chosen = `Dnnf));
    case "auto on the cnf pipeline is counting-only" (fun () ->
        let d =
          { Dimacs.num_vars = 5; clauses = [ [ 1; 2 ]; [ -2; 3 ]; [ 4; -5 ] ] }
        in
        match Pipeline.compile_cnf ~backend:`Auto d with
        | Error e -> Alcotest.fail (Ctwsdd_error.to_string e)
        | Ok r -> checkb "dnnf" true (r.Pipeline.cnf_backend = `Dnnf));
    case "selection is recorded for the explain surface" (fun () ->
        let c = Generators.chain_implications 10 in
        ignore (Pipeline.compile_exn ~backend:`Auto c);
        match Backend.last_selection () with
        | None -> Alcotest.fail "no selection recorded"
        | Some (requested, chosen, reason) ->
          checks "requested" "auto" requested;
          checks "chosen" "obdd" chosen;
          checkb "reason" true (reason <> ""));
    case "unknown backend names share the normalized message" (fun () ->
        (match Backend.of_string "bdds" with
         | Error (Ctwsdd_error.Invalid_input msg) ->
           checks "message"
             "unknown backend \"bdds\" (expected sdd, obdd, dnnf or auto)" msg
         | _ -> Alcotest.fail "junk accepted");
        List.iter
          (fun s ->
            match Backend.of_string s with
            | Ok b -> checks s s (Backend.name b)
            | Error _ -> Alcotest.fail ("rejected " ^ s))
          [ "sdd"; "obdd"; "dnnf"; "auto" ]);
  ]

let query_suite =
  [
    case "prob agrees across backends and auto picks by safety" (fun () ->
        let db =
          Pdb.make
            [
              (Pdb.tuple "R" [ "1" ], Ratio.of_ints 1 2);
              (Pdb.tuple "R" [ "2" ], Ratio.of_ints 1 3);
              (Pdb.tuple "S" [ "1"; "1" ], Ratio.of_ints 1 4);
              (Pdb.tuple "S" [ "2"; "1" ], Ratio.of_ints 2 3);
              (Pdb.tuple "T" [ "1" ], Ratio.of_ints 3 4);
            ]
        in
        let q_rs = Ucq.of_string "R(x), S(x,y)" in
        let expected = Prob.brute q_rs db in
        List.iter
          (fun (name, b) ->
            match Prob.via ~backend:b q_rs db with
            | Error e -> Alcotest.fail (name ^ ": " ^ Ctwsdd_error.to_string e)
            | Ok a -> check ratio ("via " ^ name) expected a.Prob.probability)
          tags;
        (* R(x), S(x,y) is hierarchical: the auto route must take the
           OBDD on the hierarchical order. *)
        (match Prob.via ~backend:`Auto q_rs db with
         | Ok a -> checkb "hierarchical -> obdd" true (a.Prob.backend = `Obdd)
         | Error e -> Alcotest.fail (Ctwsdd_error.to_string e));
        (* R(x), S(x,y), T(y) is not hierarchical but inversion-free:
           auto stays on the canonical SDD. *)
        let q_rst = Ucq.of_string "R(x), S(x,y), T(y)" in
        match Prob.via ~backend:`Auto q_rst db with
        | Ok a -> checkb "non-hierarchical -> sdd" true (a.Prob.backend = `Sdd)
        | Error e -> Alcotest.fail (Ctwsdd_error.to_string e));
    case "model_count facade counts through the dnnf fast path" (fun () ->
        let c = Generators.chain_implications 12 in
        (match Ctwsdd.model_count c with
         | Ok n -> check bigint "count" (Bigint.of_int 13) n
         | Error e -> Alcotest.fail (Ctwsdd_error.to_string e));
        (match Backend.last_selection () with
         | Some (_, chosen, _) -> checks "chosen" "dnnf" chosen
         | None -> Alcotest.fail "no selection");
        check bigint "constant true" Bigint.one
          (Ctwsdd.model_count_exn (Circuit.of_string "(or true false)"));
        check bigint "constant false" Bigint.zero
          (Ctwsdd.model_count_exn (Circuit.of_string "(and true false)")));
  ]

(* Exact WMC against a truth table.  The vtree carries two variables
   (g1, g2) that no test function mentions, so every count crosses vtree
   gaps; the weights mix non-dyadic values with 0 and 1. *)
let wmc_vars = [ "a"; "g1"; "b"; "c"; "g2"; "d"; "e" ]

let wmc_weight = function
  | "a" -> Ratio.of_ints 1 3
  | "b" -> Ratio.of_ints 2 5
  | "c" -> Ratio.of_ints 7 16
  | "d" -> Ratio.zero
  | "e" -> Ratio.one
  | _ -> Ratio.of_ints 5 9

(* Σ over all assignments of the vtree variables of Π literal weights,
   restricted to the models of [f]. *)
let truth_table_wmc f weight =
  let rec go asg = function
    | [] -> if f asg then Ratio.one else Ratio.zero
    | v :: rest ->
      let w = weight v in
      Ratio.add
        (Ratio.mul w (go (Boolfun.Smap.add v true asg) rest))
        (Ratio.mul (Ratio.sub Ratio.one w) (go (Boolfun.Smap.add v false asg) rest))
  in
  go Boolfun.Smap.empty wmc_vars

let wmc_circuits =
  List.map Circuit.of_string
    [
      "(or (and a b) (not c))";
      "(and (or a d) (or b e) (or c (not a)))";
      "(or (and a (not b)) (and c e) (and (not a) d))";
      "(or (and a (not b)) (and (not a) b))";
      (* b is redundant: a canonical manager does not mention it *)
      "(or (and a b) (and a (not b)) (and c (not e)))";
      "d";
      "(not e)";
      "(and c (not c))";
      "(or b (not b))";
    ]

let resolved : (string * Backend.resolved) list =
  [ ("sdd", `Sdd); ("obdd", `Obdd); ("dnnf", `Dnnf) ]

(* Every root under test on one backend: each compiled circuit, its
   negation and the two constants, with the truth function of each. *)
let wmc_roots b vt =
  let module B = (val Backend.impl b) in
  let m = B.create_manager vt in
  let roots =
    List.concat_map
      (fun c ->
        let r = B.compile_circuit m c in
        [ (r, Circuit.eval c); (B.negate m r, fun asg -> not (Circuit.eval c asg)) ])
      wmc_circuits
  in
  (m, ((Sdd.true_ m, fun _ -> true) :: (Sdd.false_ m, fun _ -> false) :: roots))

let wmc_vtrees =
  [ ("balanced", Vtree.balanced wmc_vars); ("random", Vtree.random ~seed:7 wmc_vars) ]

(* Variables occurring as literals in the SDD, read through [view]. *)
let mentioned m a =
  let rec go acc a =
    match Sdd.view m a with
    | Sdd.True | Sdd.False -> acc
    | Sdd.Literal (v, _) -> if List.mem v acc then acc else v :: acc
    | Sdd.Decision (_, elems) ->
      List.fold_left (fun acc (p, s) -> go (go acc p) s) acc elems
  in
  go [] a

let wmc_suite =
  [
    case "probability_ratio matches the truth table on every backend" (fun () ->
        List.iter
          (fun (bname, b) ->
            List.iter
              (fun (vname, vt) ->
                let m, roots = wmc_roots b vt in
                List.iteri
                  (fun i (r, f) ->
                    check ratio
                      (Printf.sprintf "%s/%s root %d" bname vname i)
                      (truth_table_wmc f wmc_weight)
                      (Sdd.probability_ratio m r wmc_weight))
                  roots)
              wmc_vtrees)
          resolved);
    case "uniform weights give model_count / 2^n" (fun () ->
        let half _ = Ratio.of_ints 1 2 in
        let n = List.length wmc_vars in
        List.iter
          (fun (bname, b) ->
            let m, roots = wmc_roots b (Vtree.balanced wmc_vars) in
            List.iteri
              (fun i (r, _) ->
                check ratio
                  (Printf.sprintf "%s root %d" bname i)
                  (Ratio.make (Sdd.model_count m r) (Bigint.pow2 n))
                  (Sdd.probability_ratio m r half))
              roots)
          resolved);
    case "weight is asked once per mentioned variable, never for others"
      (fun () ->
        List.iter
          (fun (bname, b) ->
            let m, roots = wmc_roots b (Vtree.random ~seed:3 wmc_vars) in
            List.iteri
              (fun i (r, f) ->
                let mentioned = mentioned m r in
                let calls = Hashtbl.create 8 in
                let strict v =
                  if not (List.mem v mentioned) then
                    Alcotest.failf "%s root %d: weight asked for unmentioned %s"
                      bname i v;
                  Hashtbl.replace calls v
                    (1 + Option.value ~default:0 (Hashtbl.find_opt calls v));
                  wmc_weight v
                in
                check ratio
                  (Printf.sprintf "%s root %d" bname i)
                  (truth_table_wmc f wmc_weight)
                  (Sdd.probability_ratio m r strict);
                List.iter
                  (fun v ->
                    checki
                      (Printf.sprintf "%s root %d: calls for %s" bname i v)
                      1
                      (Option.value ~default:0 (Hashtbl.find_opt calls v)))
                  mentioned)
              roots)
          resolved);
  ]

let suites =
  [
    ("backend agreement", agreement_suite);
    ("backend wmc", wmc_suite);
    ("backend obdd", obdd_suite);
    ("backend dnnf", dnnf_suite);
    ("backend auto", auto_suite);
    ("backend query", query_suite);
  ]

(* The benchmark's own test: its oracles against brute force on tiny
   instances, its verdicts on deliberately wrong answers, its generators'
   determinism, and the traced chains against the facade. *)

let checks = ref 0

let expect what ok =
  incr checks;
  if not ok then begin
    Printf.eprintf "perfbench selftest FAILED: %s\n" what;
    exit 1
  end

(* Lineage oracles against Prob.brute (enumeration of subdatabases). *)
let () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun n ->
      let db = Gen.random_db st n in
      List.iter
        (fun q ->
          expect ("lifted " ^ q)
            (Lifted.probability (Ucq.of_string q) db
            = Some (Prob.brute (Ucq.of_string q) db)))
        Gen.safe_queries;
      expect "neq closed form"
        (Ratio.equal (Oracle.neq db n) (Prob.brute (Ucq.of_string Gen.neq_query) db));
      expect "inversion closed form"
        (Ratio.equal (Oracle.inversion n)
           (Prob.brute (Ucq.of_string Gen.inversion_query) (Pdb.complete_rst n))))
    [ 1; 2 ]

(* Clause DP against enumeration of all assignments. *)
let brute_cnf n clauses =
  let count = ref 0 in
  for a = 0 to (1 lsl n) - 1 do
    let value l = (a lsr (abs l - 1)) land 1 = 1 = (l > 0) in
    if List.for_all (List.exists value) clauses then incr count
  done;
  Bigint.of_int !count

let () =
  let st = Random.State.make [| 11 |] in
  let cases =
    [ (9, Gen.grid_clauses 3 3); (12, Gen.grid_clauses 3 4);
      (10, Gen.chain_clauses 10); (10, [ 1 ] :: Gen.chain_clauses 10);
      (10, [ -10 ] :: Gen.chain_clauses 10);
      (12, Gen.band_clauses st ~off:0 ~width:3 12);
      (12, Gen.band_clauses st ~off:0 ~width:5 12);
      (12, Gen.band_clauses st ~off:0 ~width:3 6 @ Gen.band_clauses st ~off:6 ~width:4 6);
      (11, [ [ 1; -3 ]; [ 3; 5 ] ]) (* variables in no clause count twice *) ]
  in
  List.iter
    (fun (n, cl) ->
      expect (Printf.sprintf "clause DP, %d vars" n)
        (Bigint.equal (Oracle.count_cnf n cl) (brute_cnf n cl)))
    cases

(* Truth-table counts against Circuit.eval brute force, and the closed
   forms against them. *)
let eval_count c =
  let vars = Circuit.variables c in
  let n = List.length vars in
  let count = ref 0 in
  for a = 0 to (1 lsl n) - 1 do
    let asg =
      List.fold_left
        (fun (m, i) v -> (Boolfun.Smap.add v ((a lsr i) land 1 = 1) m, i + 1))
        (Boolfun.Smap.empty, 0) vars
      |> fst
    in
    if Circuit.eval c asg then incr count
  done;
  Bigint.of_int !count

let () =
  let st = Random.State.make [| 13 |] in
  List.iter
    (fun vars ->
      let c = Gen.random_window st vars in
      expect "random-window truth table"
        (Bigint.equal (Oracle.count_gates c) (eval_count c)))
    [ 6; 9; 10; 12 ];
  List.iter
    (fun n ->
      let parity = Circuit.of_string (Gen.xor_sexp (List.init n (fun i -> Gen.var (i + 1)))) in
      expect "parity closed form"
        (Bigint.equal (Bigint.pow2 (n - 1)) (Oracle.count_gates parity));
      let chain = Circuit.of_string (Gen.sexp_of_clauses (Gen.chain_clauses n)) in
      expect "chain closed form"
        (Bigint.equal (Bigint.of_int (n + 1)) (Oracle.count_gates chain)))
    [ 2; 5; 9 ]

(* Verdicts: a wrong answer, a raise and a size change are failures. *)
let () =
  let items = [| List.hd (Gen.items "circuit-minimize" 3) |] in
  let oracle = Verdict.oracle_answers items in
  let right = match oracle.(0) with Ok v -> v | Error _ -> assert false in
  let wrong =
    match right with
    | Oracle.Count n -> Oracle.Count (Bigint.succ n)
    | Oracle.Prob p -> Oracle.Prob (Ratio.add p (Ratio.of_ints 1 1024))
  in
  let verdict outs = Verdict.check items oracle [| outs |] (fun _ _ -> ()) in
  let ok size = Ok { Routes.value = right; size } in
  expect "right answers pass" (verdict [ ok 5; ok 5 ] = (2, 0));
  expect "wrong answer fails"
    (verdict [ ok 5; Ok { Routes.value = wrong; size = 5 } ] = (2, 1));
  expect "raise fails" (verdict [ Error "boom"; ok 5 ] = (2, 1));
  expect "size change fails" (verdict [ ok 6; ok 5 ] = (2, 1))

(* Generators: same seed, same inputs; another seed, other inputs. *)
let texts w seed =
  List.map
    (fun it ->
      match it.Gen.payload with
      | Gen.Lineage { query; db; _ } ->
        query ^ String.concat ","
          (List.map (fun t -> Ratio.to_string (db.Pdb.prob t)) db.Pdb.facts)
      | Gen.Cnf { text; _ } | Gen.Circ { text; _ } -> text)
    (Gen.items w seed)

let () =
  List.iter
    (fun w ->
      expect ("deterministic " ^ w) (texts w 1 = texts w 1);
      expect ("seeded " ^ w) (texts w 1 <> texts w 2);
      expect ("at least 100 items " ^ w) (List.length (Gen.items w 1) >= 100))
    Gen.workloads

(* Traced chains agree with the facade (answer and size) on the cheapest
   items of every workload, and the facade with the oracle. *)
let () =
  List.iter
    (fun w ->
      let items =
        List.filter
          (fun it ->
            match it.Gen.payload with
            | Gen.Lineage { db; _ } -> List.length db.Pdb.facts <= 24
            | Gen.Cnf { num_vars; _ } -> num_vars <= 200
            | Gen.Circ { text; _ } -> String.length text <= 300)
          (Gen.items w 5)
      in
      List.iteri
        (fun i it ->
          if i < 6 then begin
            let f = Routes.facade it in
            let t = Routes.traced (Routes.acc ()) it in
            expect ("traced = facade on " ^ it.Gen.label)
              (Oracle.value_equal f.Routes.value t.Routes.value
              && f.Routes.size = t.Routes.size);
            expect ("facade = oracle on " ^ it.Gen.label)
              (Oracle.value_equal f.Routes.value (Oracle.answer it))
          end)
        items)
    Gen.workloads

let () = Printf.printf "perfbench selftest: %d checks passed\n" !checks

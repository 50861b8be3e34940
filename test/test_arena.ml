(* The arena node store: generational compaction, sharded parallel
   apply and the scratch-stack apply kernel.

   Invariants under test: compaction preserves the represented function,
   canonicity and the model count while driving tombstones and garbage
   words to zero; dynamic edits followed by compaction and import
   round-trip the function; a budget trip during compaction rolls back
   before any mutation; apply_parallel agrees with the sequential apply
   loop handle-for-handle; the kernel repeats the allocation and cache
   counts recorded on the list-based kernel it replaced; and the scratch
   stack is back at depth 0 after every operation, a budget trip
   included. *)

open Test_util

let validate_ok m node =
  match Sdd.validate m node with
  | Ok () -> true
  | Error msg -> Alcotest.failf "invalid SDD: %s" msg

(* A manager with garbage: compile the circuit, then run a throwaway
   conjunction whose intermediates become unreachable. *)
let with_garbage c mk_vt =
  let m = Sdd.manager (mk_vt (Circuit.variables c)) in
  let node = Sdd.compile_circuit m c in
  let vars = Circuit.variables c in
  ignore
    (List.fold_left
       (fun acc v -> Sdd.conjoin m acc (Sdd.literal m v true))
       (Sdd.true_ m) vars);
  (m, node)

let fixtures () =
  [
    (Generators.band_cnf ~width:3 8, Vtree.balanced);
    (Generators.chain_implications 9, Vtree.right_linear);
    (Generators.random_formula ~seed:11 ~vars:8 ~depth:4, Vtree.balanced);
  ]

let compaction_suite =
  [
    case "compact preserves function, canonicity and model count" (fun () ->
        List.iter
          (fun (c, mk_vt) ->
            let m, node = with_garbage c mk_vt in
            let f0 = Sdd.to_boolfun m node in
            let count0 = Sdd.model_count m node in
            let gen0 = Sdd.generation m in
            let node = Sdd.compact m node in
            checkb "function" true (Boolfun.equal f0 (Sdd.to_boolfun m node));
            checkb "count" true
              (Bigint.equal count0 (Sdd.model_count m node));
            checkb "valid" true (validate_ok m node);
            checki "generation bumped" (gen0 + 1) (Sdd.generation m);
            let cs = Sdd.census m in
            checki "no tombstones" 0 cs.Sdd.tombstones;
            checki "no garbage words" 0 cs.Sdd.garbage_words)
          (fixtures ()));
    case "compact_roots relocates positionally" (fun () ->
        let c = Generators.band_cnf ~width:3 8 in
        let m = Sdd.manager (Vtree.balanced (Circuit.variables c)) in
        let a = Sdd.compile_circuit m c in
        let b = Sdd.negate m a in
        let fa = Sdd.to_boolfun m a and fb = Sdd.to_boolfun m b in
        (match Sdd.compact_roots m [| a; b |] with
         | [| a'; b' |] ->
           checkb "root 0" true (Boolfun.equal fa (Sdd.to_boolfun m a'));
           checkb "root 1" true (Boolfun.equal fb (Sdd.to_boolfun m b'));
           checkb "negation survives" true (Sdd.negate m a' = b')
         | _ -> Alcotest.fail "arity");
        ());
    case "edit, compact, import round-trips the function" (fun () ->
        List.iter
          (fun (c, mk_vt) ->
            let m = Sdd.manager (mk_vt (Circuit.variables c)) in
            let node = Sdd.compile_circuit m c in
            let f0 = Sdd.to_boolfun m node in
            (* Dynamic edits leave tombstones behind... *)
            let node = ref node in
            List.iter
              (fun (mv, _) -> node := Sdd.apply_move m mv !node)
              (match Vtree.local_moves_with (Sdd.vtree m) with
               | [] -> []
               | mv :: _ -> [ mv ]);
            let cs = Sdd.census m in
            checkb "edits left garbage" true
              (cs.Sdd.tombstones > 0 && cs.Sdd.garbage_words > 0);
            (* ...compaction reclaims them... *)
            node := Sdd.compact m !node;
            let cs = Sdd.census m in
            checki "tombstones reclaimed" 0 cs.Sdd.tombstones;
            checkb "still valid" true (validate_ok m !node);
            checkb "function preserved" true
              (Boolfun.equal f0 (Sdd.to_boolfun m !node));
            (* ...and the compacted SDD imports cleanly. *)
            let dst = Sdd.manager (Sdd.vtree m) in
            let imported = Sdd.import ~dst ~map:(fun v -> v) m !node in
            checkb "import preserved" true
              (Boolfun.equal f0 (Sdd.to_boolfun dst imported));
            checkb "import valid" true (validate_ok dst imported))
          (fixtures ()));
    case "maybe_compact fires on the threshold" (fun () ->
        let c = Generators.chain_implications 12 in
        let m =
          Sdd.manager ~compact_every:16
            (Vtree.balanced (Circuit.variables c))
        in
        let node = Sdd.compile_circuit m c in
        let f0 = Sdd.to_boolfun m node in
        let node = Sdd.maybe_compact m node in
        checkb "compactions ran" true (Sdd.compactions m > 0);
        checki "generation = compactions" (Sdd.compactions m)
          (Sdd.generation m);
        checkb "function preserved" true
          (Boolfun.equal f0 (Sdd.to_boolfun m node));
        Sdd.set_compact_every m max_int;
        let before = Sdd.compactions m in
        let node' = Sdd.maybe_compact m node in
        checki "disarmed: no pass" before (Sdd.compactions m);
        checkb "disarmed: identity" true (node' = node));
    case "budget trip during compaction rolls back cleanly" (fun () ->
        let c = Generators.band_cnf ~width:3 8 in
        let m, node = with_garbage c Vtree.balanced in
        let f0 = Sdd.to_boolfun m node in
        let cs0 = Sdd.census m in
        let b = Budget.create () in
        Budget.cancel_now b;
        Sdd.set_budget m b;
        (match Sdd.compact m node with
         | _ -> Alcotest.fail "expected Budget.Exhausted"
         | exception Budget.Exhausted _ -> ());
        (* Nothing moved: same census, same handle, same function. *)
        Sdd.set_budget m Budget.unlimited;
        let cs1 = Sdd.census m in
        checki "allocated unchanged" cs0.Sdd.allocated cs1.Sdd.allocated;
        checki "generation unchanged" cs0.Sdd.generation cs1.Sdd.generation;
        checkb "handle still valid" true (validate_ok m node);
        checkb "function unchanged" true
          (Boolfun.equal f0 (Sdd.to_boolfun m node));
        (* And with the budget lifted the same compaction succeeds. *)
        let node = Sdd.compact m node in
        checkb "retry succeeds" true
          (Boolfun.equal f0 (Sdd.to_boolfun m node)));
  ]

let parallel_suite =
  [
    case "apply_parallel agrees with sequential conjoin handle-for-handle"
      (fun () ->
        let fs = random_functions ~vars:6 ~count:8 in
        let vars =
          List.sort_uniq compare (List.concat_map Boolfun.variables fs)
        in
        let m = Sdd.manager (Vtree.balanced vars) in
        let nodes = List.map (Compile.sdd_of_boolfun m) fs in
        let rec pair_up = function
          | a :: b :: rest -> (a, b) :: pair_up rest
          | _ -> []
        in
        let pairs = pair_up nodes in
        let seq = List.map (fun (a, b) -> Sdd.conjoin m a b) pairs in
        let d1 = Sdd.apply_parallel ~domains:1 m pairs in
        let d4 = Sdd.apply_parallel ~domains:4 m pairs in
        checkb "d1 = sequential" true (List.for_all2 ( = ) seq d1);
        checkb "d4 = sequential" true (List.for_all2 ( = ) seq d4);
        List.iter (fun n -> checkb "valid" true (validate_ok m n)) d4);
    case "apply_parallel at 2 and 4 domains is handle-identical to conjoin"
      (fun () ->
        (* UCQ lineages over one database: every pair is a sizeable
           apply, and pairs share operands, so the workers run at the
           same time on the same sub-results.  Each worker domain must
           push on its own scratch stack. *)
        let db = Pdb.complete_rst 5 in
        let cs =
          List.map
            (fun q -> Lineage.circuit (Ucq.of_string q) db)
            [ "R(x),S(x,y)"; "S(x,y),T(y)"; "R(x),T(y)"; "S(x,y)" ]
        in
        let vt = Vtree.balanced (Lineage.variables db) in
        let build () =
          let m = Sdd.manager vt in
          (m, Array.of_list (List.map (Sdd.compile_circuit m) cs))
        in
        let pairs a =
          let n = Array.length a in
          List.concat
            (List.init n (fun i ->
                 [ (a.(i), a.((i + 1) mod n)); (a.(i), a.((i + 2) mod n)) ]))
        in
        List.iter
          (fun domains ->
            let mp, np = build () and ms, ns = build () in
            let par = Sdd.apply_parallel ~domains mp (pairs np) in
            let seq = List.map (fun (a, b) -> Sdd.conjoin ms a b) (pairs ns) in
            List.iter2
              (fun (a, b) r ->
                (* De Morgan goes through the OR cache, not the AND
                   entries the parallel run wrote: canonicity must give
                   back the same handle. *)
                let dm =
                  Sdd.negate mp
                    (Sdd.disjoin mp (Sdd.negate mp a) (Sdd.negate mp b))
                in
                checkb "De Morgan handle" true (Sdd.equal dm r);
                checkb "conjoin handle" true (Sdd.equal (Sdd.conjoin mp a b) r))
              (pairs np) par;
            List.iter2
              (fun r s ->
                checkb "same count as sequential" true
                  (Bigint.equal (Sdd.model_count mp r) (Sdd.model_count ms s));
                checki "same size as sequential" (Sdd.size ms s)
                  (Sdd.size mp r))
              par seq;
            checki "stack at depth 0" 0 (Sdd.scratch_depth ()))
          [ 2; 4 ]);
    case "conjoin_parallel equals conjoin_list" (fun () ->
        let fs = random_functions ~vars:6 ~count:5 in
        let vars =
          List.sort_uniq compare (List.concat_map Boolfun.variables fs)
        in
        let m = Sdd.manager (Vtree.balanced vars) in
        let nodes = List.map (Compile.sdd_of_boolfun m) fs in
        let seq = Sdd.conjoin_list m nodes in
        checkb "d4 tree reduction" true
          (Sdd.conjoin_parallel ~domains:4 m nodes = seq);
        checkb "empty list is true" true
          (Sdd.conjoin_parallel ~domains:4 m [] = Sdd.true_ m));
    case "apply_parallel validates the domain count" (fun () ->
        let m = Sdd.manager (Vtree.balanced [ "x"; "y" ]) in
        let p = (Sdd.literal m "x" true, Sdd.literal m "y" true) in
        (match Sdd.apply_parallel ~domains:0 m [ p ] with
         | _ -> Alcotest.fail "expected Invalid_argument"
         | exception Invalid_argument _ -> ());
        ());
    case "CTWSDD_DOMAINS is validated strictly" (fun () ->
        let check_env v expect =
          Unix.putenv "CTWSDD_DOMAINS" v;
          let r = Obs.Worker.domains_env () in
          Unix.putenv "CTWSDD_DOMAINS" "1";
          match (r, expect) with
          | Ok got, `Ok want ->
            checkb (Printf.sprintf "%S accepted" v) true (got = want)
          | Error _, `Error -> ()
          | Ok _, `Error ->
            Alcotest.failf "%S unexpectedly accepted" v
          | Error msg, `Ok _ ->
            Alcotest.failf "%S unexpectedly rejected: %s" v msg
        in
        check_env "3" (`Ok (Some 3));
        check_env " 2 " (`Ok (Some 2));
        check_env "0" `Error;
        check_env "-4" `Error;
        check_env "lots" `Error;
        check_env "" `Error);
    case "CTWSDD_RING is validated strictly" (fun () ->
        let check_env v expect =
          Unix.putenv "CTWSDD_RING" v;
          let r = Flight_recorder.ring_env () in
          Unix.putenv "CTWSDD_RING" "4096";
          match (r, expect) with
          | Ok got, `Ok want ->
            checkb (Printf.sprintf "%S accepted" v) true (got = want)
          | Error _, `Error -> ()
          | Ok _, `Error -> Alcotest.failf "%S unexpectedly accepted" v
          | Error msg, `Ok _ ->
            Alcotest.failf "%S unexpectedly rejected: %s" v msg
        in
        check_env "64" (`Ok (Some 64));
        check_env " 128 " (`Ok (Some 128));
        check_env "0" `Error;
        check_env "-1" `Error;
        check_env "banana" `Error;
        check_env "" `Error);
    case "shard lock counters conserve and stay silent sequentially"
      (fun () ->
        Obs.set_enabled true;
        Obs.reset ();
        Fun.protect
          ~finally:(fun () ->
            Obs.reset ();
            Obs.set_enabled false)
          (fun () ->
            let fs = random_functions ~vars:6 ~count:8 in
            let vars =
              List.sort_uniq compare (List.concat_map Boolfun.variables fs)
            in
            let m = Sdd.manager (Vtree.balanced vars) in
            let nodes = List.map (Compile.sdd_of_boolfun m) fs in
            (* Sequential compilation never arms the shard mutexes. *)
            let c0 = Sdd.contention m in
            checki "no sequential alloc acq" 0 c0.Sdd.alloc_acquisitions;
            checkb "no sequential shard acq" true
              (List.for_all
                 (fun s ->
                   s.Sdd.unique_acquisitions = 0 && s.Sdd.cache_acquisitions = 0)
                 c0.Sdd.shards);
            let rec pair_up = function
              | a :: b :: rest -> (a, b) :: pair_up rest
              | _ -> []
            in
            ignore (Sdd.apply_parallel ~domains:4 m (pair_up nodes));
            let c = Sdd.contention m in
            let ua =
              List.fold_left
                (fun a s -> a + s.Sdd.unique_acquisitions)
                0 c.Sdd.shards
            in
            let ca =
              List.fold_left
                (fun a s -> a + s.Sdd.cache_acquisitions)
                0 c.Sdd.shards
            in
            checkb "parallel run acquired locks" true (ua + ca > 0);
            checki "sixteen shards" 16 (List.length c.Sdd.shards);
            List.iter
              (fun s ->
                checkb "unique contended <= acquired" true
                  (s.Sdd.unique_contended <= s.Sdd.unique_acquisitions);
                checkb "cache contended <= acquired" true
                  (s.Sdd.cache_contended <= s.Sdd.cache_acquisitions))
              c.Sdd.shards;
            checkb "alloc contended <= acquired" true
              (c.Sdd.alloc_contended <= c.Sdd.alloc_acquisitions);
            (* The epilogue republishes the per-run deltas as ordinary
               Obs counters; the manager was fresh, so the deltas are
               the totals. *)
            checki "unique delta republished" ua
              (Obs.counter_value "sdd.unique_lock.acquisitions");
            checki "cache delta republished" ca
              (Obs.counter_value "sdd.cache_lock.acquisitions");
            checkb "contention in census JSON" true
              (match Sdd.contention_to_json c with
               | Obs.Json.Obj fields ->
                 List.mem_assoc "shards" fields
                 && List.mem_assoc "alloc_acquisitions" fields
               | _ -> false)));
  ]

(* The scratch-stack apply kernel: the counts below were recorded on
   the list-based kernel it replaced.  Node ids follow allocation order,
   so equal allocation counts and equal unique/and/or hits and lookups
   over a whole compile pin the kernel's operation order, and with it
   every handle. *)
let lineage q n = Lineage.circuit (Ucq.of_string q) (Pdb.complete_rst n)

let kernel_counts m =
  let find name =
    List.find (fun s -> s.Obs.Cache.cache = name) (Sdd.stats m)
  in
  Sdd.num_nodes_allocated m
  :: List.concat_map
       (fun name ->
         let s = find name in
         [ s.Obs.Cache.hits; s.Obs.Cache.lookups ])
       [ "sdd.unique"; "sdd.and_cache"; "sdd.or_cache" ]

let check_counts label want m =
  Alcotest.(check (list int))
    (label ^ ": allocated, unique/and/or hits and lookups")
    want (kernel_counts m)

let golden_compile label ~mk c vt ~counts ~size =
  let m = mk vt in
  let root = Sdd.compile_circuit m c in
  check_counts label counts m;
  checki (label ^ ": size") size (Sdd.size m root)

let rst n = lineage "R(x),S(x,y),T(y)" n
let balanced c = Vtree.balanced (Circuit.variables c)

let kernel_suite =
  [
    case "golden counts: R(x),S(x,y),T(y) n=4 on a balanced vtree" (fun () ->
        let c = rst 4 in
        golden_compile "sdd" ~mk:Sdd.manager c (balanced c)
          ~counts:[ 1840; 1092; 2883; 9978; 12535; 2773; 4029 ]
          ~size:1599;
        golden_compile "dnnf" ~mk:Sdd.dnnf_manager c (balanced c)
          ~counts:[ 52127; 0; 0; 164229; 195554; 74387; 111881 ]
          ~size:70042);
    case "golden counts: R(x),S(x,y) | T(y) n=5 on its Lemma 1 vtree"
      (fun () ->
        let c = lineage "R(x),S(x,y) | T(y)" 5 in
        golden_compile "sdd" ~mk:Sdd.manager c
          (fst (Lemma1.vtree_of_circuit c))
          ~counts:[ 1904; 1371; 3204; 4740; 7933; 1176; 2763 ]
          ~size:142);
    case "golden counts: band_cnf width 3, n=32 on its Lemma 1 vtree"
      (fun () ->
        let c = Generators.band_cnf ~width:3 32 in
        golden_compile "sdd" ~mk:Sdd.manager c
          (fst (Lemma1.vtree_of_circuit c))
          ~counts:[ 16499; 60941; 77374; 293626; 375962; 80923; 115746 ]
          ~size:421);
    case "golden counts: in-manager minimization with compaction armed"
      (fun () ->
        let c = Generators.band_cnf ~width:3 10 in
        let m = Sdd.manager ~compact_every:64 (balanced c) in
        let root = Sdd.compile_circuit m c in
        let root, size =
          Vtree_search.minimize_manager_exn ~max_steps:6 m root
        in
        check_counts "minimize" [ 47; 615; 1903; 2054; 3914; 589; 1301 ] m;
        checki "size" 54 size;
        checki "root size" 54 (Sdd.size m root);
        checki "compactions" 17 (Sdd.compactions m));
    case "apply cache shards spread over their buckets" (fun () ->
        (* The shard and the bucket used to come from the same low hash
           bits, leaving 15/16 of every shard's buckets empty: on this
           compile the longest chain was 48. *)
        let c = rst 5 in
        let m = Sdd.manager (balanced c) in
        ignore (Sdd.compile_circuit m c);
        let cs = Sdd.census m in
        checkb
          (Printf.sprintf "longest apply chain %d <= 12" cs.Sdd.apply_max_bucket)
          true
          (cs.Sdd.apply_max_bucket <= 12);
        checkb "census JSON carries it" true
          (match Sdd.census_to_json cs with
           | Obs.Json.Obj fields -> List.mem_assoc "apply_max_bucket" fields
           | _ -> false));
    case "a node-cap trip inside compile_circuit leaves the manager usable"
      (fun () ->
        let c = rst 3 in
        let vt = balanced c in
        let fresh = Sdd.manager vt in
        let want = Sdd.compile_circuit fresh c in
        let cap = Sdd.num_nodes_allocated fresh / 2 in
        let m = Sdd.manager ~budget:(Budget.create ~max_nodes:cap ()) vt in
        (match Sdd.compile_circuit m c with
         | _ -> Alcotest.fail "expected Budget.Exhausted"
         | exception Budget.Exhausted _ -> ());
        checki "stack unwound after the trip" 0 (Sdd.scratch_depth ());
        Sdd.set_budget m Budget.unlimited;
        let got = Sdd.compile_circuit m c in
        checkb "same handle as a fresh manager" true (Sdd.equal want got);
        checkb "valid" true (validate_ok m got);
        checki "stack at depth 0" 0 (Sdd.scratch_depth ()));
  ]

let suites =
  [
    ("arena compaction", compaction_suite);
    ("parallel apply", parallel_suite);
    ("apply kernel", kernel_suite);
  ]

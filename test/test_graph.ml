open Test_util

let td_valid g t =
  match Treedec.validate g t with
  | Ok () -> true
  | Error msg -> Alcotest.failf "invalid decomposition: %s" msg

let ugraph_suite =
  [
    case "basic construction" (fun () ->
        let g = Ugraph.create 4 in
        Ugraph.add_edge g 0 1;
        Ugraph.add_edge g 1 0;
        (* duplicate ignored *)
        Ugraph.add_edge g 2 2;
        (* self-loop ignored *)
        checki "edges" 1 (Ugraph.num_edges g);
        checkb "has" true (Ugraph.has_edge g 1 0);
        checkb "hasn't" false (Ugraph.has_edge g 0 2));
    case "families sizes" (fun () ->
        checki "path edges" 4 (Ugraph.num_edges (Ugraph.path_graph 5));
        checki "cycle edges" 5 (Ugraph.num_edges (Ugraph.cycle_graph 5));
        checki "clique edges" 10 (Ugraph.num_edges (Ugraph.complete_graph 5));
        checki "grid edges" 12 (Ugraph.num_edges (Ugraph.grid_graph 3 3));
        checki "star edges" 4 (Ugraph.num_edges (Ugraph.star_graph 5));
        checki "bipartite edges" 6 (Ugraph.num_edges (Ugraph.complete_bipartite 2 3)));
    case "components" (fun () ->
        let g = Ugraph.of_edges 5 [ (0, 1); (2, 3) ] in
        checki "three components" 3 (List.length (Ugraph.components g));
        checkb "not connected" false (Ugraph.is_connected g);
        checkb "path connected" true (Ugraph.is_connected (Ugraph.path_graph 4)));
    case "induced subgraph" (fun () ->
        let g = Ugraph.cycle_graph 5 in
        let h, map = Ugraph.induced_subgraph g [ 0; 1; 2 ] in
        checki "vertices" 3 (Ugraph.num_vertices h);
        checki "edges" 2 (Ugraph.num_edges h);
        checki "map" 0 map.(0));
    case "complement" (fun () ->
        let g = Ugraph.path_graph 4 in
        let h = Ugraph.complement g in
        checki "edges" (6 - 3) (Ugraph.num_edges h);
        checkb "0-2 in complement" true (Ugraph.has_edge h 0 2));
    case "random tree is a tree" (fun () ->
        let g = Ugraph.random_tree ~seed:5 20 in
        checki "edges" 19 (Ugraph.num_edges g);
        checkb "connected" true (Ugraph.is_connected g));
    qtest "gnp edges within range" QCheck2.Gen.(int_range 0 100) (fun seed ->
        let g = Ugraph.random_gnp ~seed 8 0.5 in
        Ugraph.num_edges g <= 28);
  ]

(* Reference copies of the elimination heuristics, elimination-order
   decomposition and validator as they were before the incremental
   core: a full rescan of the live vertices per step, Set adjacency,
   and every check by scanning all bags.  The differential suite below
   holds the library to them bit for bit. *)
module Reference = struct
  module ISet = Set.Make (Int)

  let greedy_order score g =
    let n = Ugraph.num_vertices g in
    let adj = Array.init n (fun v -> ISet.of_list (Ugraph.neighbors g v)) in
    let alive = Array.make n true in
    let order = ref [] in
    for _ = 1 to n do
      let best = ref (-1) and best_score = ref max_int in
      for v = 0 to n - 1 do
        if alive.(v) then begin
          let s = score adj v in
          if s < !best_score then begin
            best := v;
            best_score := s
          end
        end
      done;
      let v = !best in
      alive.(v) <- false;
      order := v :: !order;
      let nbrs = adj.(v) in
      ISet.iter
        (fun a ->
          ISet.iter
            (fun b ->
              if a < b then begin
                adj.(a) <- ISet.add b adj.(a);
                adj.(b) <- ISet.add a adj.(b)
              end)
            nbrs)
        nbrs;
      ISet.iter (fun a -> adj.(a) <- ISet.remove v adj.(a)) nbrs;
      adj.(v) <- ISet.empty
    done;
    List.rev !order

  let min_degree_order g = greedy_order (fun adj v -> ISet.cardinal adj.(v)) g

  let min_fill_order g =
    let fill adj v =
      let nbrs = ISet.elements adj.(v) in
      let missing = ref 0 in
      let rec pairs = function
        | [] -> ()
        | a :: rest ->
          List.iter (fun b -> if not (ISet.mem b adj.(a)) then incr missing) rest;
          pairs rest
      in
      pairs nbrs;
      !missing
    in
    greedy_order fill g

  let of_elimination_order g order =
    let n = Ugraph.num_vertices g in
    if n = 0 then { Treedec.bags = [||]; tree = [] }
    else begin
      let pos = Array.make n 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      let adj = Array.init n (fun v -> ISet.of_list (Ugraph.neighbors g v)) in
      let order_arr = Array.of_list order in
      let bags = Array.make n [] in
      let tree = ref [] in
      for i = 0 to n - 1 do
        let v = order_arr.(i) in
        let later = ISet.filter (fun u -> pos.(u) > i) adj.(v) in
        bags.(i) <- v :: ISet.elements later;
        ISet.iter
          (fun a ->
            ISet.iter
              (fun b ->
                if a < b then begin
                  adj.(a) <- ISet.add b adj.(a);
                  adj.(b) <- ISet.add a adj.(b)
                end)
              later)
          later;
        match ISet.min_elt_opt (ISet.map (fun u -> pos.(u)) later) with
        | Some j -> tree := (i, j) :: !tree
        | None -> if i < n - 1 then tree := (i, i + 1) :: !tree
      done;
      { Treedec.bags; tree = !tree }
    end

  let width_of_order g order = Treedec.width (of_elimination_order g order)

  let upper_bound g =
    if Ugraph.num_vertices g = 0 then (-1, [])
    else begin
      let candidates = [ min_fill_order g; min_degree_order g ] in
      let scored = List.map (fun o -> (width_of_order g o, o)) candidates in
      List.fold_left
        (fun (bw, bo) (w, o) -> if w < bw then (w, o) else (bw, bo))
        (List.hd scored) (List.tl scored)
    end

  let decomposition g =
    let _, order = upper_bound g in
    if order = [] then Treedec.trivial g
    else Treedec.refine_connected (of_elimination_order g order)

  let tree_ok (t : Treedec.t) =
    let n = Array.length t.bags in
    if n = 0 then t.tree = []
    else if List.length t.tree <> n - 1 then false
    else begin
      let adj = Array.make n [] in
      let ok = ref true in
      List.iter
        (fun (a, b) ->
          if a < 0 || a >= n || b < 0 || b >= n || a = b then ok := false
          else begin
            adj.(a) <- b :: adj.(a);
            adj.(b) <- a :: adj.(b)
          end)
        t.tree;
      if not !ok then false
      else begin
        let seen = Array.make n false in
        let rec dfs v =
          seen.(v) <- true;
          List.iter (fun w -> if not seen.(w) then dfs w) adj.(v)
        in
        dfs 0;
        Array.for_all Fun.id seen
      end
    end

  let validate g (t : Treedec.t) =
    let n = Ugraph.num_vertices g in
    if not (tree_ok t) then Error "tree edges do not form a tree over the bags"
    else begin
      let bag_sets = Array.map ISet.of_list t.bags in
      let covered = Array.make n false in
      Array.iter
        (ISet.iter (fun v -> if v >= 0 && v < n then covered.(v) <- true))
        bag_sets;
      let missing = List.filter (fun v -> not covered.(v)) (Ugraph.vertices g) in
      if missing <> [] then
        Error (Printf.sprintf "vertex %d is in no bag" (List.hd missing))
      else begin
        let edge_missing =
          List.find_opt
            (fun (u, v) ->
              not (Array.exists (fun b -> ISet.mem u b && ISet.mem v b) bag_sets))
            (Ugraph.edges g)
        in
        match edge_missing with
        | Some (u, v) -> Error (Printf.sprintf "edge (%d,%d) is in no bag" u v)
        | None ->
          let nb = Array.length t.bags in
          let adj = Array.make nb [] in
          List.iter
            (fun (a, b) ->
              adj.(a) <- b :: adj.(a);
              adj.(b) <- a :: adj.(b))
            t.tree;
          let bad = ref None in
          for v = 0 to n - 1 do
            if !bad = None then begin
              let occ = ref [] in
              Array.iteri (fun i b -> if ISet.mem v b then occ := i :: !occ) bag_sets;
              match !occ with
              | [] -> ()
              | start :: _ ->
                let occ_set = ISet.of_list !occ in
                let seen = Hashtbl.create 16 in
                let rec dfs i =
                  Hashtbl.replace seen i ();
                  List.iter
                    (fun j ->
                      if ISet.mem j occ_set && not (Hashtbl.mem seen j) then dfs j)
                    adj.(i)
                in
                dfs start;
                if Hashtbl.length seen <> ISet.cardinal occ_set then bad := Some v
            end
          done;
          (match !bad with
           | Some v ->
             Error (Printf.sprintf "occurrence set of vertex %d is disconnected" v)
           | None -> Ok ())
      end
    end
end

let same_treedec (a : Treedec.t) (b : Treedec.t) = a.bags = b.bags && a.tree = b.tree

(* Every public elimination entry point agrees with [Reference]. *)
let agrees_with_reference g =
  let order = Treewidth.min_fill_order g in
  order = Reference.min_fill_order g
  && Treewidth.min_degree_order g = Reference.min_degree_order g
  && Treewidth.upper_bound g = Reference.upper_bound g
  && same_treedec (Treewidth.decomposition g) (Reference.decomposition g)
  && same_treedec
       (Treedec.of_elimination_order g order)
       (Reference.of_elimination_order g order)

let check_agrees name g =
  checkb (Printf.sprintf "%s (%d vertices)" name (Ugraph.num_vertices g)) true
    (agrees_with_reference g)

let primal c = fst (Tseitin.primal_graph (Tseitin.transform c))

(* Break a valid decomposition with a few random edits to its bags and
   tree: dropped, added (possibly out-of-range), repeated and moved
   vertices, rewired or dropped tree edges. *)
let corrupt st n (t : Treedec.t) =
  let bags = Array.copy t.bags and tree = ref t.tree in
  let nb = Array.length bags in
  let bag () = Random.State.int st nb in
  for _ = 0 to Random.State.int st 3 do
    match Random.State.int st 6 with
    | 0 ->
      let i = bag () in
      (match bags.(i) with
       | [] -> ()
       | l -> bags.(i) <- List.filteri (fun k _ -> k <> Random.State.int st (List.length l)) l)
    | 1 ->
      let i = bag () in
      bags.(i) <- (Random.State.int st (n + 2) - 1) :: bags.(i)
    | 2 ->
      let i = bag () in
      bags.(i) <- bags.(i) @ bags.(i)
    | 3 ->
      let i = bag () and j = bag () in
      (match bags.(i) with
       | v :: rest ->
         bags.(i) <- rest;
         bags.(j) <- v :: bags.(j)
       | [] -> ())
    | 4 ->
      tree :=
        List.map
          (fun (a, b) -> if Random.State.int st 4 = 0 then (a, bag ()) else (a, b))
          !tree
    | _ -> (match !tree with [] -> () | _ :: rest -> tree := rest)
  done;
  { Treedec.bags; tree = !tree }

let elimination_suite =
  [
    case "degenerate graphs" (fun () ->
        List.iter
          (fun (name, g) -> check_agrees name g)
          [
            ("empty", Ugraph.create 0);
            ("single", Ugraph.create 1);
            ("edgeless", Ugraph.create 5);
            ("two components", Ugraph.of_edges 7 [ (0, 1); (1, 2); (4, 5); (5, 6); (4, 6) ]);
            ("clique", Ugraph.complete_graph 9);
            ("star", Ugraph.star_graph 12);
            ("grid", Ugraph.grid_graph 5 6);
          ]);
    qtest ~count:150 "G(n,p) orders, widths and decompositions match the reference"
      QCheck2.Gen.(triple (int_range 0 100_000) (int_range 1 45) (float_range 0.02 0.7))
      (fun (seed, n, p) -> agrees_with_reference (Ugraph.random_gnp ~seed n p));
    qtest ~count:100 "partial k-trees match the reference"
      QCheck2.Gen.(quad (int_range 0 100_000) (int_range 1 60) (int_range 1 6)
                     (float_range 0.3 1.0))
      (fun (seed, n, k, p) ->
        agrees_with_reference (Ugraph.random_partial_ktree ~seed n (min k n) p));
    case "lineage gate and Tseitin primal graphs match the reference" (fun () ->
        List.iter
          (fun text ->
            let q = Ucq.of_string text in
            for n = 3 to 6 do
              let c = Lineage.circuit q (Pdb.complete_rst n) in
              check_agrees (Printf.sprintf "%s, rst %d, gates" text n)
                (Circuit.underlying_graph c);
              check_agrees (Printf.sprintf "%s, rst %d, primal" text n) (primal c)
            done)
          [ "R(x), S(x,y)"; "R(x), S(x,y), T(y)"; "R(x), S(x,y) | S(x,y), T(y)" ]);
    case "chain_implications 64 primal graph matches the reference" (fun () ->
        check_agrees "chain-impl-64 primal" (primal (Generators.chain_implications 64)));
    qtest ~count:300 "validate verdicts and messages match the reference"
      QCheck2.Gen.(triple (int_range 0 100_000) (int_range 1 25) (float_range 0.05 0.6))
      (fun (seed, n, p) ->
        let g = Ugraph.random_gnp ~seed n p in
        let st = Random.State.make [| seed |] in
        let t = corrupt st n (Treewidth.decomposition g) in
        Treedec.validate g t = Reference.validate g t);
  ]

let treedec_suite =
  [
    case "trivial decomposition valid" (fun () ->
        let g = Ugraph.complete_graph 4 in
        let t = Treedec.trivial g in
        checkb "valid" true (td_valid g t);
        checki "width" 3 (Treedec.width t));
    case "elimination order on path" (fun () ->
        let g = Ugraph.path_graph 6 in
        let t = Treedec.of_elimination_order g [ 0; 1; 2; 3; 4; 5 ] in
        checkb "valid" true (td_valid g t);
        checki "width" 1 (Treedec.width t));
    case "elimination order on cycle" (fun () ->
        let g = Ugraph.cycle_graph 6 in
        let t = Treedec.of_elimination_order g [ 0; 1; 2; 3; 4; 5 ] in
        checkb "valid" true (td_valid g t);
        checki "width" 2 (Treedec.width t));
    case "bad order rejected" (fun () ->
        let g = Ugraph.path_graph 3 in
        Alcotest.check_raises "raise"
          (Invalid_argument
             "Treedec.of_elimination_order: not a permutation of the vertices")
          (fun () -> ignore (Treedec.of_elimination_order g [ 0; 1 ])));
    case "validate catches broken bags" (fun () ->
        let g = Ugraph.path_graph 3 in
        let t = { Treedec.bags = [| [ 0; 1 ] |]; tree = [] } in
        checkb "invalid" false (Treedec.is_valid g t));
    case "validate catches disconnected occurrence" (fun () ->
        let g = Ugraph.path_graph 3 in
        let t =
          { Treedec.bags = [| [ 0; 1 ]; [ 1; 2 ]; [ 0 ] |]; tree = [ (0, 1); (1, 2) ] }
        in
        checkb "invalid" false (Treedec.is_valid g t));
    case "path decomposition of path" (fun () ->
        let g = Ugraph.path_graph 5 in
        let t = Treedec.path_decomposition_of_order g [ 0; 1; 2; 3; 4 ] in
        checkb "valid" true (td_valid g t);
        checki "width" 1 (Treedec.width t));
    qtest "elimination decomposition always valid" QCheck2.Gen.(int_range 0 200)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 9 0.3 in
        let order = Treewidth.min_fill_order g in
        td_valid g (Treedec.refine_connected (Treedec.of_elimination_order g order)));
  ]

let nice_suite =
  [
    case "nice of path decomposition" (fun () ->
        let g = Ugraph.path_graph 6 in
        let td = Treewidth.decomposition g in
        let nice = Nice.of_treedec td in
        (match Nice.validate g nice with
         | Ok () -> ()
         | Error m -> Alcotest.failf "invalid nice decomposition: %s" m);
        checki "width preserved" (Treedec.width td) (Nice.width nice));
    case "every vertex forgotten exactly once" (fun () ->
        let g = Ugraph.cycle_graph 7 in
        let nice = Nice.of_treedec (Treewidth.decomposition g) in
        let forgotten = List.sort compare (List.map fst (Nice.forget_nodes nice)) in
        Alcotest.(check (list int)) "all once" (Ugraph.vertices g) forgotten);
    qtest "nice decomposition valid on random graphs" QCheck2.Gen.(int_range 0 100)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 10 0.35 in
        let nice = Nice.of_treedec (Treewidth.decomposition g) in
        Result.is_ok (Nice.validate g nice));
    qtest "nice width equals decomposition width" QCheck2.Gen.(int_range 200 300)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 9 0.4 in
        let td = Treewidth.decomposition g in
        Nice.width (Nice.of_treedec td) = Treedec.width td);
  ]

let treewidth_suite =
  [
    case "known treewidths" (fun () ->
        checki "path" 1 (Treewidth.exact (Ugraph.path_graph 8));
        checki "cycle" 2 (Treewidth.exact (Ugraph.cycle_graph 8));
        checki "clique" 6 (Treewidth.exact (Ugraph.complete_graph 7));
        checki "tree" 1 (Treewidth.exact (Ugraph.random_tree ~seed:3 12));
        checki "grid 3x3" 3 (Treewidth.exact (Ugraph.grid_graph 3 3));
        checki "grid 3x4" 3 (Treewidth.exact (Ugraph.grid_graph 3 4));
        checki "K23" 2 (Treewidth.exact (Ugraph.complete_bipartite 2 3));
        checki "single vertex" 0 (Treewidth.exact (Ugraph.create 1));
        checki "empty graph" (-1) (Treewidth.exact (Ugraph.create 0)));
    case "known pathwidths" (fun () ->
        checki "path" 1 (Treewidth.pathwidth_exact (Ugraph.path_graph 8));
        checki "cycle" 2 (Treewidth.pathwidth_exact (Ugraph.cycle_graph 8));
        checki "clique" 5 (Treewidth.pathwidth_exact (Ugraph.complete_graph 6));
        checki "star" 1 (Treewidth.pathwidth_exact (Ugraph.star_graph 8));
        (* Complete binary tree of height 3 has pathwidth 2 > treewidth 1. *)
        let bt =
          Ugraph.of_edges 15 (List.init 14 (fun i -> (i + 1, (i - 1) / 2)))
        in
        checki "binary tree tw" 1 (Treewidth.exact bt);
        checki "binary tree pw" 2 (Treewidth.pathwidth_exact bt));
    case "size limit enforced" (fun () ->
        Alcotest.check_raises "raise"
          (Invalid_argument "Treewidth.exact: graph has 25 vertices (limit 18)")
          (fun () -> ignore (Treewidth.exact (Ugraph.path_graph 25))));
    case "partial ktree width bounded" (fun () ->
        let g = Ugraph.random_partial_ktree ~seed:11 14 3 0.8 in
        checkb "tw <= 3" true (Treewidth.exact g <= 3));
    qtest "heuristic >= exact >= lower bound" QCheck2.Gen.(int_range 0 150) (fun seed ->
        let g = Ugraph.random_gnp ~seed 9 0.3 in
        let ub, _ = Treewidth.upper_bound g in
        let ex = Treewidth.exact g in
        let lb = Treewidth.lower_bound_mmd g in
        lb <= ex && ex <= ub);
    qtest "pathwidth >= treewidth" QCheck2.Gen.(int_range 0 100) (fun seed ->
        let g = Ugraph.random_gnp ~seed 8 0.35 in
        Treewidth.pathwidth_exact g >= Treewidth.exact g);
    qtest "exact order witnesses exact width" QCheck2.Gen.(int_range 0 100)
      (fun seed ->
        let g = Ugraph.random_gnp ~seed 8 0.4 in
        let w, order = Treewidth.exact_order g in
        Treewidth.width_of_order g order = w);
    qtest "pathwidth order witnesses width" QCheck2.Gen.(int_range 0 60) (fun seed ->
        let g = Ugraph.random_gnp ~seed 7 0.4 in
        let w, order = Treewidth.pathwidth_order g in
        let pd = Treedec.path_decomposition_of_order g order in
        Treedec.is_valid g pd && Treedec.width pd <= w);
  ]

let suites =
  [
    ("ugraph", ugraph_suite);
    ("treedec", treedec_suite);
    ("nice", nice_suite);
    ("treewidth", treewidth_suite);
    ("elimination", elimination_suite);
  ]

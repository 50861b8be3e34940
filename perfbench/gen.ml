(* Seeded input generation.  Every item is program text (a UCQ string,
   DIMACS, or a circuit s-expression) plus what its independent oracle
   needs; the same (workload, seed) always yields the same list.

   Sizes come from fixed per-family slot tables, so every seed runs the
   same mix of work; the seed draws fact probabilities, CNF band signs,
   grid orientations, random-window circuits and the item order. *)

type circuit_oracle =
  | Chain of int  (** [n] variables: [n + 1] models. *)
  | Parity of int  (** [n] variables: [2^(n-1)] models. *)
  | Clauses of int * int list list  (** CNF over variables [1..n]. *)
  | Gates of Circuit.t  (** Brute force over at most 20 variables. *)

type lineage_oracle =
  | Lifted  (** Safe query: lifted inference. *)
  | Neq of int  (** [R(x),S(x,y), x != y] over [complete_rst n]. *)
  | Inversion of int  (** [R(x),S(x,y),T(y)] over [complete_rst n], all 1/2. *)

type payload =
  | Lineage of { query : string; db : Pdb.t; oracle : lineage_oracle }
  | Cnf of { text : string; num_vars : int; clauses : int list list }
  | Circ of { text : string; max_steps : int; oracle : circuit_oracle }

type item = { family : string; label : string; payload : payload }

let workloads = [ "lineage-prob"; "cnf-count"; "circuit-minimize" ]

let rng workload seed =
  Random.State.make [| seed; Hashtbl.hash workload |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let repeat k l = List.concat (List.init k (fun _ -> l))

(* ------------------------------------------------------------------ *)
(* lineage-prob                                                        *)
(* ------------------------------------------------------------------ *)

(* Facts of [complete_rst n], each with its own probability k/16, k odd
   (so every denominator is exactly 16). *)
let random_db st n =
  Pdb.make
    (List.map
       (fun t -> (t, Ratio.of_ints (1 + (2 * Random.State.int st 8)) 16))
       (Pdb.complete_rst n).Pdb.facts)

let safe_queries = [ "R(x),S(x,y)"; "R(x),S(x,y) | T(y)" ]
let neq_query = "R(x),S(x,y), x != y"
let inversion_query = "R(x),S(x,y),T(y)"

(* Domain sizes per inversion-free query, and for the inversion query
   (the Theorem 5 family, kept to n <= 5: 11 of the 104 items). *)
let free_sizes = repeat 14 [ 4 ] @ repeat 12 [ 5 ] @ repeat 4 [ 6 ] @ [ 7 ]
let inversion_sizes = repeat 4 [ 3 ] @ repeat 5 [ 4 ] @ repeat 2 [ 5 ]

let lineage_items st =
  let free =
    List.concat_map
      (fun query ->
        List.map
          (fun n ->
            let family, oracle, db =
              if query = neq_query then ("neq", Neq n, random_db st n)
              else ("safe", Lifted, random_db st n)
            in
            { family;
              label = Printf.sprintf "%s n=%d" query n;
              payload = Lineage { query; db; oracle } })
          free_sizes)
      (safe_queries @ [ neq_query ])
  in
  let inv =
    List.map
      (fun n ->
        { family = "inversion";
          label = Printf.sprintf "%s n=%d" inversion_query n;
          payload =
            Lineage
              { query = inversion_query;
                db = Pdb.complete_rst n;
                oracle = Inversion n } })
      inversion_sizes
  in
  free @ inv

(* ------------------------------------------------------------------ *)
(* cnf-count                                                           *)
(* ------------------------------------------------------------------ *)

let dimacs_text num_vars clauses =
  let b = Buffer.create 4096 in
  Printf.bprintf b "c perfbench\np cnf %d %d\n" num_vars (List.length clauses);
  List.iter
    (fun c ->
      List.iter (fun l -> Printf.bprintf b "%d " l) c;
      Buffer.add_string b "0\n")
    clauses;
  Buffer.contents b

let cnf family label num_vars clauses =
  { family; label;
    payload = Cnf { text = dimacs_text num_vars clauses; num_vars; clauses } }

(* Implication grid: x(i,j) -> x(i+1,j) and x(i,j) -> x(i,j+1), numbered
   row-major; its models are the up-sets of the r x c grid poset. *)
let grid_clauses r c =
  let v i j = (i * c) + j + 1 in
  List.concat
    (List.init r (fun i ->
         List.concat
           (List.init c (fun j ->
                (if i + 1 < r then [ [ -v i j; v (i + 1) j ] ] else [])
                @ if j + 1 < c then [ [ -v i j; v i (j + 1) ] ] else []))))

(* Width-w band over variables [off+1 .. off+n] with seeded signs. *)
let band_clauses st ~off ~width n =
  List.init (n - width + 1) (fun i ->
      List.init width (fun j ->
          let x = off + i + j + 1 in
          if Random.State.bool st then x else -x))

let chain_clauses n = List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ])

let grid_slots =
  [ (4, 6); (4, 8); (4, 10); (5, 8); (5, 10); (5, 12);
    (6, 8); (6, 10); (6, 12); (7, 10); (8, 10); (8, 12) ]

let cnf_items st =
  let grids =
    List.map
      (fun (r, c) ->
        let r, c = if Random.State.bool st then (r, c) else (c, r) in
        cnf "grid" (Printf.sprintf "grid-%dx%d" r c) (r * c) (grid_clauses r c))
      (repeat 3 grid_slots)
  in
  let bands =
    List.concat_map
      (fun width ->
        List.map
          (fun n ->
            cnf "band"
              (Printf.sprintf "band%d-%d" width n)
              n
              (band_clauses st ~off:0 ~width n))
          (repeat 3 [ 60; 120; 200; 300 ]))
      [ 3; 4; 5 ]
  in
  let chains =
    List.map
      (fun n ->
        cnf "chain" (Printf.sprintf "chain-%d" n) n (chain_clauses n))
      (repeat 2 [ 1000; 1500; 2000; 2500; 3000; 4000 ])
  in
  let copies =
    List.map
      (fun (k, width, n) ->
        cnf "copies"
          (Printf.sprintf "copies-%dx-band%d-%d" k width n)
          (k * n)
          (List.concat
             (List.init k (fun i -> band_clauses st ~off:(i * n) ~width n))))
      (repeat 2
         [ (2, 3, 60); (3, 4, 40); (4, 3, 50); (5, 4, 30); (6, 3, 40); (8, 4, 30);
           (2, 4, 50); (3, 3, 60); (4, 4, 40); (5, 3, 50); (6, 4, 30); (8, 3, 40) ])
  in
  (* A unit clause at the head (x1) of an implication chain, or at its
     tail (not xn): unit propagation forces every variable.  Propagation
     from the tail runs against the clause order and costs quadratic
     time today, so those chains are shorter. *)
  let unit_chain (at, unit) n =
    cnf "unit-chain"
      (Printf.sprintf "unit-%s-chain-%d" at n)
      n
      (unit n :: chain_clauses n)
  in
  let head = ("head", fun _ -> [ 1 ]) and tail = ("tail", fun n -> [ -n ]) in
  let unit_headed =
    List.map (unit_chain head) [ 1000; 1500; 2000; 2500; 3000; 4000 ]
    @ List.map (unit_chain tail) [ 400; 600; 800; 1000; 1200; 1500 ]
  in
  grids @ bands @ chains @ copies @ unit_headed

(* ------------------------------------------------------------------ *)
(* circuit-minimize                                                    *)
(* ------------------------------------------------------------------ *)

let var i = Printf.sprintf "x%d" i

let sexp_of_clauses clauses =
  let lit l = if l > 0 then var l else Printf.sprintf "(not %s)" (var (-l)) in
  Printf.sprintf "(and %s)"
    (String.concat " "
       (List.map
          (fun c -> Printf.sprintf "(or %s)" (String.concat " " (List.map lit c)))
          clauses))

(* Balanced XOR tree: the s-expression repeats each subtree twice, so the
   text grows as n^2; the parser's hash-consing shares it back. *)
let rec xor_sexp = function
  | [ x ] -> x
  | leaves ->
    let k = List.length leaves / 2 in
    let a = xor_sexp (List.filteri (fun i _ -> i < k) leaves)
    and b = xor_sexp (List.filteri (fun i _ -> i >= k) leaves) in
    Printf.sprintf "(or (and %s (not %s)) (and (not %s) %s))" a b a b

(* Generators.random_window (window 8, one gate per variable) often
   folds to a constant function; redraw until 60 random assignments see
   both outputs. *)
let rec random_window st vars =
  let c =
    Generators.random_window ~seed:(Random.State.bits st) ~window:8 ~vars
      ~gates:vars
  in
  let names = Circuit.variables c in
  let draw _ =
    Circuit.eval c
      (List.fold_left
         (fun m v -> Boolfun.Smap.add v (Random.State.bool st) m)
         Boolfun.Smap.empty names)
  in
  let outs = List.init 60 draw in
  if List.length names >= 2 && List.mem true outs && List.mem false outs then c
  else random_window st vars

(* The band of Generators.band_cnf ~width:3 (variable x positive iff x is
   even).  Signs stay fixed here because the minimization cost swings
   with them. *)
let alternating_band n =
  List.init (n - 2) (fun i ->
      List.init 3 (fun j ->
          let x = i + j + 1 in
          if x land 1 = 0 then x else -x))

let circ family label max_steps text oracle =
  { family; label; payload = Circ { text; max_steps; oracle } }

let circuit_items st =
  let bands =
    List.concat_map
      (fun n ->
        List.map
          (fun k ->
            let clauses = alternating_band n in
            circ "band3"
              (Printf.sprintf "band3-%d k=%d" n k)
              k (sexp_of_clauses clauses)
              (Clauses (n, clauses)))
          [ 2; 3 ])
      (repeat 3 [ 10; 12; 14; 16; 18 ])
  in
  let chains =
    List.concat_map
      (fun n ->
        List.map
          (fun k ->
            circ "chain-impl"
              (Printf.sprintf "chain-impl-%d k=%d" n k)
              k
              (sexp_of_clauses (chain_clauses n))
              (Chain n))
          [ 2; 3 ])
      (repeat 3 [ 12; 16; 20; 24 ])
  in
  let parities =
    List.map
      (fun n ->
        circ "parity" (Printf.sprintf "parity-%d" n) 3
          (xor_sexp (List.init n (fun i -> var (i + 1))))
          (Parity n))
      (repeat 2 [ 8; 10; 12; 14; 16; 18; 20; 22; 24; 26; 28; 32 ])
  in
  let windows =
    List.map
      (fun vars ->
        let c = random_window st vars in
        circ "random-window"
          (Printf.sprintf "random-window-%d" vars)
          3 (Circuit.to_string c) (Gates c))
      (repeat 4 [ 12; 14; 16; 18; 20; 20 ])
  in
  bands @ chains @ parities @ windows

let items workload seed =
  let st = rng workload seed in
  let l =
    match workload with
    | "lineage-prob" -> lineage_items st
    | "cnf-count" -> cnf_items st
    | "circuit-minimize" -> circuit_items st
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  shuffle st l

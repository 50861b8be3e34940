(* Independent oracles.  Nothing here touches Sdd, Pipeline or Backend:
   answers come from lifted inference, closed forms, a frontier dynamic
   program over the clauses, or truth tables. *)

type value = Prob of Ratio.t | Count of Bigint.t

let value_equal a b =
  match (a, b) with
  | Prob x, Prob y -> Ratio.equal x y
  | Count x, Count y -> Bigint.equal x y
  | _ -> false

let value_to_string = function
  | Prob p -> Ratio.to_string p
  | Count n -> Bigint.to_string n

let one_minus p = Ratio.sub Ratio.one p

let rec binomial n k =
  if k = 0 || k = n then Bigint.one
  else Bigint.divexact (Bigint.mul (binomial (n - 1) (k - 1)) (Bigint.of_int n))
      (Bigint.of_int k)

(* R(x),S(x,y),T(y) over complete_rst n, every fact at 1/2: the query
   fails iff S misses every pair of A x B, where A and B are the present
   R- and T-facts, so P(not Q) = sum_{a,b} C(n,a) C(n,b) 2^-2n 2^-ab. *)
let inversion n =
  let miss = ref Ratio.zero in
  for a = 0 to n do
    for b = 0 to n do
      miss :=
        Ratio.add !miss
          (Ratio.make
             (Bigint.mul (binomial n a) (binomial n b))
             (Bigint.pow2 ((2 * n) + (a * b))))
    done
  done;
  one_minus !miss

(* R(x),S(x,y), x != y: the events "R(x) and some S(x,y) with y <> x"
   touch disjoint facts for distinct x, so
   P = 1 - prod_x (1 - p(R(x)) (1 - prod_{y<>x} (1 - p(S(x,y))))). *)
let neq (db : Pdb.t) n =
  let p rel args = db.Pdb.prob (Pdb.tuple rel args) in
  let dom = List.init n (fun i -> string_of_int (i + 1)) in
  let none =
    List.fold_left
      (fun acc x ->
        let no_s =
          List.fold_left
            (fun acc y ->
              if y = x then acc else Ratio.mul acc (one_minus (p "S" [ x; y ])))
            Ratio.one dom
        in
        Ratio.mul acc (one_minus (Ratio.mul (p "R" [ x ]) (one_minus no_s))))
      Ratio.one dom
  in
  one_minus none

(* Model count of a CNF over variables 1..n by a frontier DP in natural
   variable order.  After deciding variable i the state is the
   assignment of the frontier: decided variables that still occur in a
   clause whose largest variable is beyond i.  A clause is checked when
   its largest variable is decided.  Cost is linear in n times
   2^(frontier width): grids are bounded by the row length, bands by
   their width, chains by 1. *)
let count_cnf n (clauses : int list list) =
  let last_use = Array.make (n + 2) 0 in
  let closing = Array.make (n + 2) [] in
  List.iter
    (fun c ->
      let top = List.fold_left (fun m l -> max m (abs l)) 0 c in
      closing.(top) <- c :: closing.(top);
      List.iter (fun l -> last_use.(abs l) <- max last_use.(abs l) top) c)
    clauses;
  (* States keyed by a bitmask over the current frontier (array of vars). *)
  let frontier = ref [||] in
  let states = ref [ (0, Bigint.one) ] in
  for i = 1 to n do
    let old = !frontier in
    let pos v =
      let rec go k = if old.(k) = v then k else go (k + 1) in
      go 0
    in
    let next =
      Array.of_list
        (List.filter (fun v -> last_use.(v) > i) (Array.to_list old @ [ i ]))
    in
    if Array.length next > 60 then invalid_arg "Oracle.count_cnf: frontier too wide";
    let value mask bit v =
      if v = i then bit else (mask lsr pos v) land 1 = 1
    in
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (mask, cnt) ->
        List.iter
          (fun bit ->
            let ok =
              List.for_all
                (List.exists (fun l -> value mask bit (abs l) = (l > 0)))
                closing.(i)
            in
            if ok then begin
              let key = ref 0 in
              Array.iteri
                (fun k v -> if value mask bit v then key := !key lor (1 lsl k))
                next;
              let prev =
                Option.value (Hashtbl.find_opt tbl !key) ~default:Bigint.zero
              in
              Hashtbl.replace tbl !key (Bigint.add prev cnt)
            end)
          [ false; true ])
      !states;
    frontier := next;
    states := Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  done;
  Bigint.sum (List.map snd !states)

(* Models of a circuit over its own variables, from its truth table
   (Circuit.to_boolfun evaluates the gates bottom-up on truth tables). *)
let count_gates (c : Circuit.t) =
  if Circuit.num_vars c > 20 then
    invalid_arg "Oracle.count_gates: more than 20 variables";
  Boolfun.count_models (Circuit.to_boolfun c)

let answer (it : Gen.item) =
  match it.Gen.payload with
  | Gen.Lineage { query; db; oracle } ->
    Prob
      (match oracle with
       | Gen.Lifted ->
         (match Lifted.probability (Ucq.of_string query) db with
          | Some p -> p
          | None -> invalid_arg ("Oracle: query not safe: " ^ query))
       | Gen.Neq n -> neq db n
       | Gen.Inversion n -> inversion n)
  | Gen.Cnf { num_vars; clauses; _ } -> Count (count_cnf num_vars clauses)
  | Gen.Circ { oracle; _ } ->
    Count
      (match oracle with
       | Gen.Chain n -> Bigint.of_int (n + 1)
       | Gen.Parity n -> Bigint.pow2 (n - 1)
       | Gen.Clauses (n, clauses) -> count_cnf n clauses
       | Gen.Gates c -> count_gates c)

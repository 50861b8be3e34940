type t = { bags : int list array; tree : (int * int) list }

let width t =
  Array.fold_left (fun acc b -> Stdlib.max acc (List.length b)) 0 t.bags - 1

let num_bags t = Array.length t.bags

(* Check that [tree] is a spanning tree over bag indices. *)
let tree_ok t =
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

(* Near-linear: one pass over the bags builds each vertex's occurrence
   list (ascending bag indices, out-of-range vertices and repeats
   dropped); an edge is covered when its endpoints' lists intersect; and
   a vertex's occurrence set, a subset of a tree, is connected exactly
   when all but one of its bags have their parent (rooting the tree at
   bag 0) in the set too. *)
let validate g t =
  let n = Ugraph.num_vertices g in
  if not (tree_ok t) then Error "tree edges do not form a tree over the bags"
  else begin
    let nb = Array.length t.bags in
    let occ = Array.make n [] in
    for i = nb - 1 downto 0 do
      List.iter
        (fun v ->
          if v >= 0 && v < n then
            match occ.(v) with
            | j :: _ when j = i -> ()
            | l -> occ.(v) <- i :: l)
        t.bags.(i)
    done;
    let rec common a b =
      match (a, b) with
      | i :: a', j :: b' -> i = j || if i < j then common a' b else common a b'
      | _ -> false
    in
    match List.find_opt (fun v -> occ.(v) = []) (Ugraph.vertices g) with
    | Some v -> Error (Printf.sprintf "vertex %d is in no bag" v)
    | None -> (
      match
        List.find_opt (fun (u, v) -> not (common occ.(u) occ.(v))) (Ugraph.edges g)
      with
      | Some (u, v) -> Error (Printf.sprintf "edge (%d,%d) is in no bag" u v)
      | None ->
        let adj = Array.make nb [] in
        List.iter
          (fun (a, b) ->
            adj.(a) <- b :: adj.(a);
            adj.(b) <- a :: adj.(b))
          t.tree;
        let parent = Array.make nb (-1) in
        let rec root_at p i =
          List.iter
            (fun j ->
              if j <> p then begin
                parent.(j) <- i;
                root_at i j
              end)
            adj.(i)
        in
        if nb > 0 then root_at (-1) 0;
        let mark = Array.make nb (-1) in
        let connected v =
          List.iter (fun i -> mark.(i) <- v) occ.(v);
          let roots =
            List.fold_left
              (fun k i ->
                if parent.(i) >= 0 && mark.(parent.(i)) = v then k else k + 1)
              0 occ.(v)
          in
          roots = 1
        in
        match List.find_opt (fun v -> not (connected v)) (Ugraph.vertices g) with
        | Some v ->
          Error (Printf.sprintf "occurrence set of vertex %d is disconnected" v)
        | None -> Ok ())
  end

let is_valid g t = Result.is_ok (validate g t)

let trivial g = { bags = [| Ugraph.vertices g |]; tree = [] }

(* Bag i is {v} + v's remaining neighbours at its elimination, joined
   to the bag of the first-eliminated member of that neighbourhood; the
   last vertex of a component joins the next bag instead, which keeps a
   single tree (its occurrences end there). *)
let of_elimination { Elimination.order; later; _ } =
  let n = Array.length order in
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let bags =
    Array.mapi
      (fun i l -> order.(i) :: List.sort Int.compare (Array.to_list l))
      later
  in
  let tree = ref [] in
  for i = 0 to n - 1 do
    let j = Array.fold_left (fun j u -> Stdlib.min j pos.(u)) max_int later.(i) in
    if j < max_int then tree := (i, j) :: !tree
    else if i < n - 1 then tree := (i, i + 1) :: !tree
  done;
  { bags; tree = !tree }

let of_elimination_order g order =
  if List.length order <> Ugraph.num_vertices g
     || List.sort compare order <> Ugraph.vertices g
  then
    invalid_arg "Treedec.of_elimination_order: not a permutation of the vertices";
  of_elimination (Elimination.run (Elimination.Fixed (Array.of_list order)) g)

let path_decomposition_of_order g order =
  let n = Ugraph.num_vertices g in
  if List.length order <> n || List.sort compare order <> Ugraph.vertices g then
    invalid_arg "Treedec.path_decomposition_of_order: not a permutation";
  if n = 0 then { bags = [||]; tree = [] }
  else begin
    let pos = Array.make n 0 in
    List.iteri (fun i v -> pos.(v) <- i) order;
    let order_arr = Array.of_list order in
    let bags =
      Array.init n (fun i ->
          let cur = order_arr.(i) in
          let active =
            List.filter
              (fun v ->
                pos.(v) <= i
                && List.exists (fun w -> pos.(w) >= i) (Ugraph.neighbors g v))
              (Ugraph.vertices g)
          in
          List.sort_uniq compare (cur :: active))
    in
    let tree = List.init (n - 1) (fun i -> (i, i + 1)) in
    { bags; tree }
  end

let refine_connected t =
  let n = Array.length t.bags in
  if n = 0 then t
  else begin
    let parent = Array.init n Fun.id in
    let rec find x = if parent.(x) = x then x else begin
        parent.(x) <- find parent.(x);
        parent.(x)
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then begin parent.(ra) <- rb; true end else false
    in
    let edges = List.filter (fun (a, b) -> union a b) t.tree in
    let extra = ref [] in
    for i = 1 to n - 1 do
      if find i <> find 0 then begin
        ignore (union i 0);
        extra := (i, 0) :: !extra
      end
    done;
    { t with tree = edges @ !extra }
  end

let pp ppf t =
  Format.fprintf ppf "@[<v>tree decomposition (width %d):@," (width t);
  Array.iteri
    (fun i b ->
      Format.fprintf ppf "  bag %d: {%s}@," i
        (String.concat "," (List.map string_of_int b)))
    t.bags;
  Format.fprintf ppf "  edges: %s@]"
    (String.concat " "
       (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) t.tree))

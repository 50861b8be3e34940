type rule = Min_fill | Min_degree | Fixed of int array

type t = { order : int array; later : int array array; width : int }

(* The graph being eliminated.  [nbr.(v)] holds v's live neighbours in
   its first [deg.(v)] slots and grows as fill edges arrive, so memory
   stays linear in vertices + edges + fill.  Membership tests stamp
   [mark] with a fresh [stamp] instead of clearing it.

   For min-fill, [fill.(u)] is kept equal to the number of missing
   edges among N(u) for every live u, and [touch u] is called whenever
   it moves; other rules leave [fill] empty. *)
type state = {
  nbr : int array array;
  deg : int array;
  mark : int array;
  mutable stamp : int;
  mutable fill : int array;
  mutable touch : int -> unit;
  budget : Budget.t;
}

let fresh_stamp s =
  s.stamp <- s.stamp + 1;
  s.stamp

let poll s = if s.budget.Budget.active then Budget.poll s.budget

let push s a b =
  let d = s.deg.(a) in
  if d = Array.length s.nbr.(a) then begin
    let bigger = Array.make (Stdlib.max 4 (2 * d)) 0 in
    Array.blit s.nbr.(a) 0 bigger 0 d;
    s.nbr.(a) <- bigger
  end;
  s.nbr.(a).(d) <- b;
  s.deg.(a) <- d + 1

let remove s a v =
  let row = s.nbr.(a) and last = s.deg.(a) - 1 in
  let i = ref 0 in
  while row.(!i) <> v do incr i done;
  row.(!i) <- row.(last);
  s.deg.(a) <- last

(* Missing edges among N(v): d(d-1)/2 minus the edges it already has. *)
let fill_score s v =
  let d = s.deg.(v) in
  if d < 2 then 0
  else begin
    let st = fresh_stamp s in
    let row = s.nbr.(v) in
    for k = 0 to d - 1 do
      s.mark.(row.(k)) <- st
    done;
    let inside = ref 0 in
    for k = 0 to d - 1 do
      let a = row.(k) in
      let ra = s.nbr.(a) in
      for l = 0 to s.deg.(a) - 1 do
        if s.mark.(ra.(l)) = st then incr inside
      done
    done;
    (d * (d - 1) / 2) - (!inside / 2)
  end

(* Eliminate [v]: its live neighbourhood, returned, becomes a clique.

   With fill counts, v's leaving takes from each neighbour u the pairs
   (v, x) that were missing, i.e. x ∉ N(v).  A new edge (a, b) then
   completes the pair (a, b) in N(x) for each common neighbour x, and
   adds to a the pairs (b, x) for x ∈ N(a) \ N(b) (and symmetrically to
   b).  Every count that moves belongs to N(v) or a neighbour of it, so
   no vertex outside N(v) ∪ N(N(v)) is ever rescored. *)
let eliminate s v =
  let nv = Array.sub s.nbr.(v) 0 s.deg.(v) in
  let tracking = Array.length s.fill > 0 in
  if tracking then begin
    let st = fresh_stamp s in
    Array.iter (fun a -> s.mark.(a) <- st) nv;
    Array.iter
      (fun u ->
        let row = s.nbr.(u) and lost = ref 0 in
        for k = 0 to s.deg.(u) - 1 do
          let x = row.(k) in
          if x <> v && s.mark.(x) <> st then incr lost
        done;
        if !lost > 0 then begin
          s.fill.(u) <- s.fill.(u) - !lost;
          s.touch u
        end)
      nv
  end;
  Array.iter (fun a -> remove s a v) nv;
  Array.iter
    (fun a ->
      (* [mark] = N[a], kept current as a gains fill edges. *)
      let st = fresh_stamp s in
      s.mark.(a) <- st;
      let row = s.nbr.(a) in
      for k = 0 to s.deg.(a) - 1 do
        s.mark.(row.(k)) <- st
      done;
      Array.iter
        (fun b ->
          if s.mark.(b) <> st then begin
            if tracking then begin
              poll s;
              let rb = s.nbr.(b) and common = ref 0 in
              for l = 0 to s.deg.(b) - 1 do
                let x = rb.(l) in
                if s.mark.(x) = st then begin
                  incr common;
                  s.fill.(x) <- s.fill.(x) - 1;
                  s.touch x
                end
              done;
              s.fill.(a) <- s.fill.(a) + s.deg.(a) - !common;
              s.fill.(b) <- s.fill.(b) + s.deg.(b) - !common;
              s.touch a;
              s.touch b
            end;
            push s a b;
            push s b a;
            s.mark.(b) <- st
          end)
        nv)
    nv;
  s.nbr.(v) <- [||];
  s.deg.(v) <- 0;
  nv

(* Greedy elimination.  A binary heap keyed by (score, index) holds the
   live vertices, so its root is the lowest-index minimum.  Eliminating
   v changes the degree of N(v) only, and the fill count of N(v) and of
   the common neighbours of new fill edges only (see [eliminate]); just
   those vertices are re-keyed. *)
let greedy s rule later =
  let n = Array.length later in
  let order = Array.make n 0 in
  let score = match rule with Min_fill -> s.fill | _ -> s.deg in
  let key = Array.copy score in
  let heap = Array.init n Fun.id and slot = Array.init n Fun.id in
  let size = ref n in
  let less u w = key.(u) < key.(w) || (key.(u) = key.(w) && u < w) in
  let place i v =
    heap.(i) <- v;
    slot.(v) <- i
  in
  let rec up i v =
    let p = (i - 1) / 2 in
    if i > 0 && less v heap.(p) then begin
      place i heap.(p);
      up p v
    end
    else place i v
  in
  let rec down i v =
    let l = (2 * i) + 1 in
    if l >= !size then place i v
    else begin
      let c = if l + 1 < !size && less heap.(l + 1) heap.(l) then l + 1 else l in
      if less heap.(c) v then begin
        place i heap.(c);
        down c v
      end
      else place i v
    end
  in
  for i = (n / 2) - 1 downto 0 do
    down i heap.(i)
  done;
  let rekey u =
    poll s;
    let k = score.(u) and old = key.(u) in
    if k <> old then begin
      key.(u) <- k;
      if k < old then up slot.(u) u else down slot.(u) u
    end
  in
  let touched = Array.make n 0 and count = ref 0 in
  let touched_at = Array.make n (-1) and step = ref 0 in
  let touch u =
    if touched_at.(u) <> !step then begin
      touched_at.(u) <- !step;
      touched.(!count) <- u;
      incr count
    end
  in
  s.touch <- touch;
  for i = 0 to n - 1 do
    let v = heap.(0) in
    decr size;
    if !size > 0 then down 0 heap.(!size);
    order.(i) <- v;
    step := i;
    count := 0;
    let nv = eliminate s v in
    later.(i) <- nv;
    (match rule with Min_fill -> () | _ -> Array.iter touch nv);
    for k = 0 to !count - 1 do
      rekey touched.(k)
    done
  done;
  order

let run ?(budget = Budget.unlimited) rule g =
  let n = Ugraph.num_vertices g in
  let nbr = Array.init n (fun v -> Array.of_list (Ugraph.neighbors g v)) in
  let s =
    { nbr; deg = Array.map Array.length nbr; mark = Array.make n 0; stamp = 0;
      fill = [||]; touch = ignore; budget }
  in
  let later = Array.make n [||] in
  let order =
    match rule with
    | Fixed order ->
      Array.iteri (fun i v -> later.(i) <- eliminate s v) order;
      order
    | Min_degree -> greedy s rule later
    | Min_fill ->
      (* One score evaluation is O(deg²) on fill-heavy graphs, so the
         heuristic can dominate a budgeted compile: poll per evaluation. *)
      s.fill <- Array.init n (fun v -> poll s; fill_score s v);
      greedy s rule later
  in
  let width = Array.fold_left (fun w l -> Stdlib.max w (Array.length l)) (-1) later in
  { order; later; width }

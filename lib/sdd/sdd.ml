(* Canonical SDDs: hash-consed, compressed, trimmed.

   Node storage is an arena.  Instead of one boxed record per node, the
   manager keeps a struct-of-arrays store — a kind byte, a vtree-node
   word, an auxiliary word and an element offset per node.  The
   prime/sub pairs of every decision lie back to back in element
   chunks: an offset encodes a chunk number and a position in that
   chunk, and a decision never straddles two chunks.  Chunks are never
   copied — a full chunk stays where it is and the next one (doubling
   up to [max_chunk] words) is opened beside it.  A node costs ~3 words
   + 2 words per element, with no per-node heap object, no tuple boxing
   and no GC scanning of the payload (every array is immediate ints).

   The store is published through an [Atomic.t] so that the sharded
   parallel-apply section (see [apply_parallel]) can grow it from one
   domain while others keep reading: growth copies the node columns, or
   the chunk directory (never the chunks), into fresh arrays and
   republishes; old snapshots remain valid for every node they cover,
   because node cells are written exactly once, before the node id is
   published (through the unique-table shard mutex that created it).

   The unique table stores node ids only.  Each shard is an
   open-addressing table of ids; a slot is hashed and compared against
   the decision's own cells in the arena, so the elements are stored
   once, in the chunks.

   Apply and node construction work on a per-domain scratch stack of
   ints: apply pushes both operands' elements and then the product
   pairs, compression groups and sorts them in place, and the unique
   lookup reads the candidate straight from the stack.  Every routine
   pops what it pushed; the public entry points also restore the depth
   when an exception ([Budget.Exhausted]) unwinds through them.

   Tombstones left by dynamic vtree edits are reclaimed by a periodic
   compaction pass ([compact] / [maybe_compact]): mark from the caller's
   roots, relocate live nodes into exact-fit arrays with a monotone
   remap, rebuild the unique table and rewrite the packed-int caches
   through the remap.  Each compaction bumps the manager's generation
   counter; the census reports garbage words and generations so the
   telemetry surface shows reclamation at work. *)

type t = int

(* Apply/negate/condition caches use a single unboxed int key (node ids
   and vtree nodes packed into one word), so a lookup allocates nothing
   and hashing is one multiply instead of a polymorphic traversal. *)
module Int_key = struct
  type t = int

  let equal (a : int) (b : int) = a = b
  let hash (x : int) = (x * 0x9e3779b97f4a7c1) lsr 33 land 0x3fffffff
end

module Int_tbl = Hashtbl.Make (Int_key)

(* ------------------------------------------------------------------ *)
(* Arena store                                                         *)
(* ------------------------------------------------------------------ *)

(* Node kinds, one byte each in [store.kind]. *)
let k_tomb = '\000' (* slot killed by an edit, awaiting compaction *)
let k_const = '\001' (* aux = 0 (⊥) or 1 (⊤); ids 0 and 1 only *)
let k_lit = '\002' (* vnode = vtree leaf, aux = polarity (0/1) *)
let k_dec = '\003' (* vnode = vtree node, aux = element count, off set *)

type store = {
  kind : Bytes.t;
  vnode : int array;  (* vtree node; -1 for constants *)
  aux : int array;  (* constant value / literal polarity / element count *)
  off : int array;  (* decision: chunk lsl pos_bits lor position; else -1 *)
  chunks : int array array;  (* element chunk directory *)
}

let pos_bits = 32
let pos_mask = (1 lsl pos_bits) - 1
let first_chunk = 1024
let max_chunk = 1 lsl 16

let[@inline] chunk_of st o = Array.unsafe_get st.chunks (o lsr pos_bits)
let[@inline] pos_of o = o land pos_mask

(* Node ids stay far below 2^31 in any workload that fits in memory, so
   two of them pack into one word: apply keys, and the sort keys of
   [mk_decision]. *)
let mask31 = (1 lsl 31) - 1
let[@inline] pair_key a b = (a lsl 31) lor b

(* ------------------------------------------------------------------ *)
(* Unique table: node ids keyed by their arena cells                   *)
(* ------------------------------------------------------------------ *)

(* One shard: linear probing over id slots ([-1] = free), at most half
   full.  The key of a slot is the decision's vtree node and elements,
   read from the store; a candidate is a vtree node plus [k] prime/sub
   pairs at [buf.(base ..)], hashed the same way. *)
type utable = { mutable slots : int array; mutable used : int }

let utable_initial = 64

let[@inline] hash_step h x = (h lxor x) * 0x100000001b3

let hash_elems v (buf : int array) base k =
  let h = ref (hash_step 0x811c9dc5 v) in
  for i = base to base + (2 * k) - 1 do
    h := hash_step !h (Array.unsafe_get buf i)
  done;
  let h = !h in
  (h lxor (h lsr 29)) land max_int

let hash_of_store st id =
  let o = st.off.(id) in
  hash_elems st.vnode.(id) (chunk_of st o) (pos_of o) st.aux.(id)

(* The probe loops are top-level functions of all their variables: a
   local closure would be allocated on every lookup. *)
let rec same_from (c : int array) p (buf : int array) base n i =
  i >= n || (c.(p + i) = buf.(base + i) && same_from c p buf base n (i + 1))

let rec probe_find st slots mask v buf base k i =
  let id = Array.unsafe_get slots i in
  if id < 0 then -1 - i
  else if
    st.vnode.(id) = v
    && st.aux.(id) = k
    &&
    let o = st.off.(id) in
    same_from (chunk_of st o) (pos_of o) buf base (2 * k) 0
  then id
  else probe_find st slots mask v buf base k ((i + 1) land mask)

(* The id of the decision [(v, buf.(base ..))], or [-1 - slot] for the
   free slot where it belongs.  [st] must cover every id in [tbl]. *)
let utable_find st tbl v buf base k =
  let mask = Array.length tbl.slots - 1 in
  probe_find st tbl.slots mask v buf base k (hash_elems v buf base k land mask)

let rec free_from slots mask i =
  if slots.(i) < 0 then i else free_from slots mask ((i + 1) land mask)

let free_slot slots h =
  let mask = Array.length slots - 1 in
  free_from slots mask (h land mask)

let utable_grow st tbl =
  let old = tbl.slots in
  let slots = Array.make (2 * Array.length old) (-1) in
  Array.iter
    (fun id ->
      if id >= 0 then slots.(free_slot slots (hash_of_store st id)) <- id)
    old;
  tbl.slots <- slots

let utable_insert_at st tbl slot id =
  tbl.slots.(slot) <- id;
  tbl.used <- tbl.used + 1;
  if 2 * tbl.used > Array.length tbl.slots then utable_grow st tbl

let utable_add st tbl id =
  utable_insert_at st tbl (free_slot tbl.slots (hash_of_store st id)) id

(* Emptied in place, keeping the capacity (an edit refills it to about
   the same size)... *)
let utable_clear tbl =
  Array.fill tbl.slots 0 (Array.length tbl.slots) (-1);
  tbl.used <- 0

(* ...or back to the initial size (a rebuild after compaction grows it
   to fit the live set). *)
let utable_reset tbl =
  tbl.slots <- Array.make utable_initial (-1);
  tbl.used <- 0

(* Runs of occupied slots, wrapping around (a table at most half full
   always has a free slot to start from): a lookup that misses scans to
   the end of its run, so the longest run bounds every probe. *)
let utable_runs tbl f =
  let slots = tbl.slots in
  let n = Array.length slots in
  let free = free_slot slots 0 in
  let run = ref 0 in
  for j = 1 to n do
    if slots.((free + j) mod n) >= 0 then incr run
    else if !run > 0 then begin
      f !run;
      run := 0
    end
  done

(* ------------------------------------------------------------------ *)
(* Scratch stack                                                       *)
(* ------------------------------------------------------------------ *)

(* One per domain, so the [apply_parallel] workers never share one.
   Callers address it by index and re-read [buf] after any call that
   may push (growth replaces the array). *)
type scratch = { mutable buf : int array; mutable sp : int }

let scratch_key =
  Domain.DLS.new_key (fun () -> { buf = Array.make 256 0; sp = 0 })

let[@inline] scratch () = Domain.DLS.get scratch_key
let scratch_depth () = (scratch ()).sp

let grow_scratch stk need =
  let n = ref (2 * Array.length stk.buf) in
  while !n < need do
    n := 2 * !n
  done;
  let buf = Array.make !n 0 in
  Array.blit stk.buf 0 buf 0 stk.sp;
  stk.buf <- buf

(* Claim [n] words above the top; returns their base. *)
let[@inline] scratch_alloc stk n =
  let base = stk.sp in
  if base + n > Array.length stk.buf then grow_scratch stk (base + n);
  stk.sp <- base + n;
  base

let[@inline] push2 stk a b =
  let i = scratch_alloc stk 2 in
  let buf = stk.buf in
  Array.unsafe_set buf i a;
  Array.unsafe_set buf (i + 1) b

(* Runs [f] on the domain's stack and restores its depth on every exit. *)
let with_scratch f =
  let stk = scratch () in
  let base = stk.sp in
  match f stk with
  | r ->
    stk.sp <- base;
    r
  | exception e ->
    stk.sp <- base;
    raise e

(* Ascending in-place sort of [buf.(lo .. lo + n - 1)]: insertion sort
   for the short runs that dominate, heapsort beyond. *)
let sort_range (buf : int array) lo n =
  if n <= 16 then
    for i = lo + 1 to lo + n - 1 do
      let x = buf.(i) in
      let j = ref (i - 1) in
      while !j >= lo && buf.(!j) > x do
        buf.(!j + 1) <- buf.(!j);
        decr j
      done;
      buf.(!j + 1) <- x
    done
  else begin
    let swap i j =
      let t = buf.(lo + i) in
      buf.(lo + i) <- buf.(lo + j);
      buf.(lo + j) <- t
    in
    let rec sift i len =
      let l = (2 * i) + 1 in
      if l < len then begin
        let c =
          if l + 1 < len && buf.(lo + l + 1) > buf.(lo + l) then l + 1 else l
        in
        if buf.(lo + c) > buf.(lo + i) then begin
          swap i c;
          sift c len
        end
      end
    in
    for i = (n / 2) - 1 downto 0 do
      sift i n
    done;
    for e = n - 1 downto 1 do
      swap 0 e;
      sift 0 e
    done
  end

(* Sort the [k] pairs at [base] by prime: pack each pair into one word,
   sort, unpack in place. *)
let sort_pairs_by_prime (buf : int array) base k =
  for i = 0 to k - 1 do
    buf.(base + i) <- pair_key buf.(base + (2 * i)) buf.(base + (2 * i) + 1)
  done;
  sort_range buf base k;
  for i = k - 1 downto 0 do
    let x = buf.(base + i) in
    buf.(base + (2 * i)) <- x lsr 31;
    buf.(base + (2 * i) + 1) <- x land mask31
  done

let reverse_pairs (buf : int array) base k =
  for i = 0 to (k / 2) - 1 do
    let a = base + (2 * i) and b = base + (2 * (k - 1 - i)) in
    let p = buf.(a) and s = buf.(a + 1) in
    buf.(a) <- buf.(b);
    buf.(a + 1) <- buf.(b + 1);
    buf.(b) <- p;
    buf.(b + 1) <- s
  done

(* The unique table and the packed-int caches are sharded so the
   parallel-apply section contends on stripes, not one global lock:
   decisions stripe by vtree node (vtree-independent subproblems touch
   disjoint unique shards), caches by key hash. *)
let shard_bits = 4
let n_shards = 1 lsl shard_bits
let shard_mask = n_shards - 1

let[@inline] dec_shard v = v land shard_mask

(* A cache shard takes the top bits of the 30-bit key hash; the shard's
   [Hashtbl] takes its bucket from the low bits, so the two never
   correlate and every shard spreads over all of its buckets. *)
let[@inline] cache_shard key = Int_key.hash key lsr (30 - shard_bits)

type manager = {
  mutable vt : Vtree.t;
  store : store Atomic.t;
  count : int Atomic.t;  (* node slots handed out *)
  mutable chunk_n : int;  (* element chunks opened; the last is current *)
  mutable chunk_fill : int;  (* words used in the current chunk *)
  mutable budget : Budget.t;
  canonical : bool;
      (* [false] only for counting-only (d-DNNF) managers: decisions are
         allocated without the unique-table find-or-claim, so handle
         equality is no longer function equality — but determinism,
         decomposability and structuredness still hold, which is all the
         counting walks need. *)
  unique : utable array;  (* sharded by [dec_shard vnode] *)
  mutable lit_tbl : int array;  (* 2*leaf + polarity -> node id, -1 free *)
  and_cache : int Int_tbl.t array;  (* sharded by key hash *)
  or_cache : int Int_tbl.t array;
  neg_cache : int Int_tbl.t array;
  cond_cache : int Int_tbl.t array;
  (* Parallel section plumbing: [parallel] arms the mutexes below; it is
     false outside [apply_parallel], where every lock site reduces to a
     load and a branch. *)
  mutable parallel : bool;
  alloc_mu : Mutex.t;  (* guards store growth, count, chunk_n/fill *)
  unique_mu : Mutex.t array;  (* one per unique shard *)
  cache_mu : Mutex.t array;  (* one per cache shard *)
  (* Lock observability: per-shard acquisition and contended-acquisition
     counts (an acquisition is contended when the initial [try_lock]
     fails).  Atomics because they are bumped from every worker domain;
     they only move inside parallel sections, where the locks are armed. *)
  lk_unique_acq : int Atomic.t array;
  lk_unique_cont : int Atomic.t array;
  lk_cache_acq : int Atomic.t array;
  lk_cache_cont : int Atomic.t array;
  lk_alloc_acq : int Atomic.t;
  lk_alloc_cont : int Atomic.t;
  (* Generational compaction state. *)
  mutable dead_nodes : int;  (* tombstones since the last compaction *)
  mutable dead_elems : int;  (* element pairs those tombstones strand *)
  mutable generation : int;
  mutable compactions_done : int;
  mutable compact_every : int;  (* max_int = never *)
  mutable last_compact_count : int;
  cs_unique : Obs.Cache.t;
  cs_and : Obs.Cache.t;
  cs_or : Obs.Cache.t;
  cs_neg : Obs.Cache.t;
  cs_cond : Obs.Cache.t;
}

(* Weak registry of live managers, so process-level consumers (the
   postmortem census provider at the bottom of this file) can enumerate
   them without keeping them alive.  Registration is once per manager;
   the mutex also covers multi-domain creation. *)
let registry_mu = Mutex.create ()
let registry : manager Weak.t ref = ref (Weak.create 8)

let register_manager m =
  Mutex.lock registry_mu;
  let w = !registry in
  let n = Weak.length w in
  let rec free i = if i >= n then None else if Weak.check w i then free (i + 1) else Some i in
  (match free 0 with
  | Some i -> Weak.set w i (Some m)
  | None ->
    let w' = Weak.create (2 * n) in
    Weak.blit w 0 w' 0 n;
    Weak.set w' n (Some m);
    registry := w');
  Mutex.unlock registry_mu

let live_managers () =
  Mutex.lock registry_mu;
  let w = !registry in
  let out = ref [] in
  for i = Weak.length w - 1 downto 0 do
    match Weak.get w i with Some m -> out := m :: !out | None -> ()
  done;
  Mutex.unlock registry_mu;
  !out

let initial_store () =
  let cap = 1024 in
  let kind = Bytes.make cap k_tomb in
  let vnode = Array.make cap (-1) in
  let aux = Array.make cap 0 in
  let off = Array.make cap (-1) in
  Bytes.unsafe_set kind 0 k_const;
  Bytes.unsafe_set kind 1 k_const;
  aux.(1) <- 1;
  let chunks = Array.make 8 [||] in
  chunks.(0) <- Array.make first_chunk 0;
  { kind; vnode; aux; off; chunks }

let tbl_entries shards =
  Array.fold_left (fun acc t -> acc + Int_tbl.length t) 0 shards

let unique_entries_of m = Array.fold_left (fun acc t -> acc + t.used) 0 m.unique

let create_manager ~canonical ?(budget = Budget.unlimited)
    ?(compact_every = max_int) vt =
  if compact_every < 1 then
    invalid_arg "Sdd.manager: compact_every must be positive";
  let unique =
    Array.init n_shards (fun _ ->
        { slots = Array.make utable_initial (-1); used = 0 })
  in
  let and_cache = Array.init n_shards (fun _ -> Int_tbl.create 128) in
  let or_cache = Array.init n_shards (fun _ -> Int_tbl.create 128) in
  let neg_cache = Array.init n_shards (fun _ -> Int_tbl.create 32) in
  let cond_cache = Array.init n_shards (fun _ -> Int_tbl.create 32) in
  let m =
    {
      vt;
      store = Atomic.make (initial_store ());
      count = Atomic.make 2;
      chunk_n = 1;
      chunk_fill = 0;
      budget;
      canonical;
      unique;
      lit_tbl = Array.make (2 * Vtree.num_nodes vt) (-1);
      and_cache;
      or_cache;
      neg_cache;
      cond_cache;
      parallel = false;
      alloc_mu = Mutex.create ();
      unique_mu = Array.init n_shards (fun _ -> Mutex.create ());
      cache_mu = Array.init n_shards (fun _ -> Mutex.create ());
      lk_unique_acq = Array.init n_shards (fun _ -> Atomic.make 0);
      lk_unique_cont = Array.init n_shards (fun _ -> Atomic.make 0);
      lk_cache_acq = Array.init n_shards (fun _ -> Atomic.make 0);
      lk_cache_cont = Array.init n_shards (fun _ -> Atomic.make 0);
      lk_alloc_acq = Atomic.make 0;
      lk_alloc_cont = Atomic.make 0;
      dead_nodes = 0;
      dead_elems = 0;
      generation = 0;
      compactions_done = 0;
      compact_every;
      last_compact_count = 2;
      cs_unique =
        Obs.Cache.create
          ~size:(fun () -> Array.fold_left (fun acc t -> acc + t.used) 0 unique)
          "sdd.unique";
      cs_and =
        Obs.Cache.create ~size:(fun () -> tbl_entries and_cache) "sdd.and_cache";
      cs_or =
        Obs.Cache.create ~size:(fun () -> tbl_entries or_cache) "sdd.or_cache";
      cs_neg =
        Obs.Cache.create ~size:(fun () -> tbl_entries neg_cache) "sdd.neg_cache";
      cs_cond =
        Obs.Cache.create
          ~size:(fun () -> tbl_entries cond_cache)
          "sdd.cond_cache";
    }
  in
  Int_tbl.replace m.neg_cache.(cache_shard 0) 0 1;
  Int_tbl.replace m.neg_cache.(cache_shard 1) 1 0;
  register_manager m;
  m

let manager ?budget ?compact_every vt =
  create_manager ~canonical:true ?budget ?compact_every vt

let dnnf_manager ?budget ?compact_every vt =
  create_manager ~canonical:false ?budget ?compact_every vt

let canonical m = m.canonical
let vtree m = m.vt
let num_nodes_allocated m = Atomic.get m.count
let budget m = m.budget
let set_budget m b = m.budget <- b

let set_compact_every m n =
  if n < 1 then invalid_arg "Sdd.set_compact_every: must be positive";
  m.compact_every <- n

let generation m = m.generation
let compactions m = m.compactions_done

(* Direct field bumps: local enough for ocamlopt to inline, so the hot
   apply/negate paths pay two stores, not a cross-module call.  In the
   parallel section concurrent bumps can lose counts — acceptable for
   hit-rate telemetry, not worth a lock. *)
let[@inline] cache_hit (c : Obs.Cache.t) =
  c.Obs.Cache.hits <- c.Obs.Cache.hits + 1

let[@inline] cache_miss (c : Obs.Cache.t) =
  c.Obs.Cache.misses <- c.Obs.Cache.misses + 1

let stats m =
  List.map Obs.Cache.snapshot
    [ m.cs_unique; m.cs_and; m.cs_or; m.cs_neg; m.cs_cond ]

(* Longest bucket chain over a set of cache shards. *)
let max_chain shards =
  Array.fold_left
    (fun acc t -> Stdlib.max acc (Int_tbl.stats t).Hashtbl.max_bucket_length)
    0 shards

(* Unique-table and apply-cache occupancy telemetry: the distribution
   of occupied-slot runs (the probe lengths of the open-addressing
   shards), entry watermarks and load factor.  Called after
   whole-circuit compiles and dynamic edits, not per operation, so the
   slot walks stay off the hot path. *)
let probe_occupancy m =
  let bindings = ref 0 and slots = ref 0 and max_run = ref 0 in
  Array.iter
    (fun tbl ->
      bindings := !bindings + tbl.used;
      slots := !slots + Array.length tbl.slots;
      utable_runs tbl (fun len ->
          max_run := Stdlib.max !max_run len;
          Obs.hist_record "sdd.unique.bucket_len" len))
    m.unique;
  Obs.gauge_max "sdd.unique.entries_peak" !bindings;
  Obs.gauge_max "sdd.unique.max_bucket" !max_run;
  if !slots > 0 then
    Obs.hist_record "sdd.unique.load_pct" (100 * !bindings / !slots);
  Obs.gauge_max "sdd.apply_cache.entries_peak"
    (tbl_entries m.and_cache + tbl_entries m.or_cache)

(* ------------------------------------------------------------------ *)
(* Manager census (postmortem and telemetry surface)                   *)
(* ------------------------------------------------------------------ *)

type census = {
  allocated : int;
  decisions : int;
  literals : int;
  tombstones : int;
  elements : int;
  unique_entries : int;
  unique_buckets : int;
  unique_max_bucket : int;
  apply_max_bucket : int;
  apply_entries : int;
  neg_entries : int;
  cond_entries : int;
  data_capacity : int;
  approx_heap_words : int;
  bytes_per_node : int;
  garbage_words : int;
  generation : int;
  compactions : int;
}

(* Words held by the element chunks in use. *)
let elems_capacity m st =
  let w = ref 0 in
  for i = 0 to m.chunk_n - 1 do
    w := !w + Array.length st.chunks.(i)
  done;
  !w

(* Exact walk over the node store; O(allocated), called at dump/export
   time only, never on a hot path.  The estimate counts the arena
   arrays themselves (per-node storage is flat: ~25/8 words of header
   across the four column arrays plus the element chunks), the literal
   table and the unique table's id slots.  [garbage_words] is the slice
   of that total stranded by tombstones — reclaimable by the next
   compaction. *)
let census m =
  let st = Atomic.get m.store in
  let count = Stdlib.min (Atomic.get m.count) (Bytes.length st.kind) in
  let decisions = ref 0
  and literals = ref 0
  and tombstones = ref 0
  and elements = ref 0 in
  let cap = Bytes.length st.kind in
  for id = 2 to count - 1 do
    let k = Bytes.unsafe_get st.kind id in
    if k = k_dec then begin
      Stdlib.incr decisions;
      elements := !elements + st.aux.(id)
    end
    else if k = k_lit then Stdlib.incr literals
    else Stdlib.incr tombstones
  done;
  let ub = ref 0 and ubk = ref 0 and umax = ref 0 in
  Array.iter
    (fun tbl ->
      ub := !ub + tbl.used;
      ubk := !ubk + Array.length tbl.slots;
      utable_runs tbl (fun len -> umax := Stdlib.max !umax len))
    m.unique;
  let words =
    ((cap + 7) / 8) + (3 * cap) + elems_capacity m st
    + Array.length st.chunks + Array.length m.lit_tbl + !ubk
  in
  {
    allocated = count;
    decisions = !decisions;
    literals = !literals;
    tombstones = !tombstones;
    elements = !elements;
    unique_entries = !ub;
    unique_buckets = !ubk;
    unique_max_bucket = !umax;
    apply_max_bucket = Stdlib.max (max_chain m.and_cache) (max_chain m.or_cache);
    apply_entries = tbl_entries m.and_cache + tbl_entries m.or_cache;
    neg_entries = tbl_entries m.neg_cache;
    cond_entries = tbl_entries m.cond_cache;
    data_capacity = cap;
    approx_heap_words = words;
    bytes_per_node = 8 * words / Stdlib.max 1 count;
    garbage_words = (3 * !tombstones) + (2 * m.dead_elems);
    generation = m.generation;
    compactions = m.compactions_done;
  }

let census_to_json c =
  Obs.Json.Obj
    [
      ("allocated", Obs.Json.Int c.allocated);
      ("decisions", Obs.Json.Int c.decisions);
      ("literals", Obs.Json.Int c.literals);
      ("tombstones", Obs.Json.Int c.tombstones);
      ("elements", Obs.Json.Int c.elements);
      ("unique_entries", Obs.Json.Int c.unique_entries);
      ("unique_buckets", Obs.Json.Int c.unique_buckets);
      ("unique_max_bucket", Obs.Json.Int c.unique_max_bucket);
      ("apply_max_bucket", Obs.Json.Int c.apply_max_bucket);
      ("apply_entries", Obs.Json.Int c.apply_entries);
      ("neg_entries", Obs.Json.Int c.neg_entries);
      ("cond_entries", Obs.Json.Int c.cond_entries);
      ("data_capacity", Obs.Json.Int c.data_capacity);
      ("approx_heap_words", Obs.Json.Int c.approx_heap_words);
      ("bytes_per_node", Obs.Json.Int c.bytes_per_node);
      ("garbage_words", Obs.Json.Int c.garbage_words);
      ("generation", Obs.Json.Int c.generation);
      ("compactions", Obs.Json.Int c.compactions);
    ]

let census_all () = List.map census (live_managers ())

(* ------------------------------------------------------------------ *)
(* Lock contention                                                     *)
(* ------------------------------------------------------------------ *)

type shard_contention = {
  shard : int;
  unique_acquisitions : int;
  unique_contended : int;
  cache_acquisitions : int;
  cache_contended : int;
}

type contention = {
  shards : shard_contention list;
  alloc_acquisitions : int;
  alloc_contended : int;
}

let contention m =
  {
    shards =
      List.init n_shards (fun s ->
          {
            shard = s;
            unique_acquisitions = Atomic.get m.lk_unique_acq.(s);
            unique_contended = Atomic.get m.lk_unique_cont.(s);
            cache_acquisitions = Atomic.get m.lk_cache_acq.(s);
            cache_contended = Atomic.get m.lk_cache_cont.(s);
          });
    alloc_acquisitions = Atomic.get m.lk_alloc_acq;
    alloc_contended = Atomic.get m.lk_alloc_cont;
  }

let contention_all () = List.map contention (live_managers ())

let contention_to_json c =
  Obs.Json.Obj
    [
      ("alloc_acquisitions", Obs.Json.Int c.alloc_acquisitions);
      ("alloc_contended", Obs.Json.Int c.alloc_contended);
      ( "shards",
        Obs.Json.List
          (List.map
             (fun s ->
               Obs.Json.Obj
                 [
                   ("shard", Obs.Json.Int s.shard);
                   ("unique_acquisitions", Obs.Json.Int s.unique_acquisitions);
                   ("unique_contended", Obs.Json.Int s.unique_contended);
                   ("cache_acquisitions", Obs.Json.Int s.cache_acquisitions);
                   ("cache_contended", Obs.Json.Int s.cache_contended);
                 ])
             c.shards) );
    ]

(* Every postmortem dump carries a census of each live manager, and the
   lock-contention picture of any manager that has run a parallel
   section (all-zero contention blocks are elided to keep dumps small). *)
let () =
  Postmortem.add_census_provider (fun () ->
      List.mapi
        (fun i c -> (Printf.sprintf "sdd_manager_%d" i, census_to_json c))
        (census_all ()))

let () =
  Postmortem.add_census_provider (fun () ->
      List.concat
        (List.mapi
           (fun i c ->
             let nonzero =
               c.alloc_acquisitions <> 0
               || List.exists
                    (fun s ->
                      s.unique_acquisitions <> 0 || s.cache_acquisitions <> 0)
                    c.shards
             in
             if nonzero then
               [ (Printf.sprintf "sdd_contention_%d" i, contention_to_json c) ]
             else [])
           (contention_all ())))

(* Occupancy gauges for the periodic telemetry exporter: cheap summary
   numbers (no node walk) refreshed whenever occupancy is probed. *)
let occupancy_gauges m =
  if !Obs.enabled_ref then begin
    Obs.gauge_set "sdd.nodes_allocated" (Atomic.get m.count);
    Obs.gauge_set "sdd.unique.entries" (unique_entries_of m);
    Obs.gauge_set "sdd.apply_cache.entries"
      (tbl_entries m.and_cache + tbl_entries m.or_cache)
  end;
  if !Flight_recorder.enabled_ref then
    Flight_recorder.record Flight_recorder.Note "sdd.occupancy"
      ~args:
        [
          ("allocated", string_of_int (Atomic.get m.count));
          ("unique_entries", string_of_int (unique_entries_of m));
        ]

let false_ _ = 0
let true_ _ = 1
(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Budget checkpoint: every node allocation gates on [active] (one load
   + branch when unlimited, see bench/overhead.ml).  The node cap is
   exact — same allocation sequence, same trip point, whatever the
   domain count — while clock/cancellation/heap ride the amortized
   poll.  Runs outside [alloc_mu] so a trip never leaves it held. *)
let[@inline] budget_gate m =
  if m.budget.Budget.active then begin
    Budget.check_nodes m.budget (Atomic.get m.count);
    Budget.poll m.budget
  end

(* Node-column growth.  Copies into fresh arrays and republishes the record;
   in parallel mode the caller holds [alloc_mu], and readers racing on
   an old snapshot stay correct because every cell they can name was
   written before its id was published.  Returns the store to write
   into. *)
let ensure_node_capacity m st id =
  if id < Bytes.length st.kind then st
  else begin
    let cap = Bytes.length st.kind in
    let cap' = 2 * cap in
    let kind = Bytes.make cap' k_tomb in
    Bytes.blit st.kind 0 kind 0 cap;
    let vnode = Array.make cap' (-1) in
    Array.blit st.vnode 0 vnode 0 cap;
    let aux = Array.make cap' 0 in
    Array.blit st.aux 0 aux 0 cap;
    let off = Array.make cap' (-1) in
    Array.blit st.off 0 off 0 cap;
    let st' = { kind; vnode; aux; off; chunks = st.chunks } in
    Atomic.set m.store st';
    st'
  end

(* Room for [need] element words in the current chunk [st] (the newest
   store), or in a fresh chunk when it is full; returns the offset.  A
   fresh chunk doubles the last one up to [max_chunk] words, and is
   larger only for a decision that needs it.  The chunk directory grows
   by copy and republication; the chunks themselves never move. *)
let reserve_elems m st need =
  let cur = m.chunk_n - 1 in
  if m.chunk_fill + need <= Array.length st.chunks.(cur) then begin
    let o = (cur lsl pos_bits) lor m.chunk_fill in
    m.chunk_fill <- m.chunk_fill + need;
    o
  end
  else begin
    let last = Array.length st.chunks.(cur) in
    let size = Stdlib.max need (Stdlib.min max_chunk (2 * last)) in
    let st =
      if m.chunk_n < Array.length st.chunks then st
      else begin
        let dir = Array.make (2 * m.chunk_n) [||] in
        Array.blit st.chunks 0 dir 0 m.chunk_n;
        let st' = { st with chunks = dir } in
        Atomic.set m.store st';
        st'
      end
    in
    st.chunks.(m.chunk_n) <- Array.make size 0;
    let o = m.chunk_n lsl pos_bits in
    m.chunk_n <- m.chunk_n + 1;
    m.chunk_fill <- need;
    o
  end

(* Allocation telemetry, shared by the raw allocators below. *)
let[@inline] after_alloc m count =
  if !Obs.enabled_ref then begin
    Obs.incr "sdd.alloc";
    Obs.gauge_max "sdd.nodes_allocated" count;
    Attribution.charge_nodes 1
  end;
  (* Occupancy pulse: one flight-recorder note (and gauge refresh) every
     4096 allocations, so a postmortem tail shows growth history without
     taxing the per-alloc path beyond a mask-and-branch. *)
  if count land 4095 = 0 then occupancy_gauges m

(* Raw literal allocation; in parallel mode the caller holds
   [alloc_mu].  Cells are fully written before [count] moves, and the
   id is only handed to other domains through a mutex. *)
let alloc_lit_raw m leaf polarity =
  let id = Atomic.get m.count in
  let st = ensure_node_capacity m (Atomic.get m.store) id in
  Bytes.unsafe_set st.kind id k_lit;
  st.vnode.(id) <- leaf;
  st.aux.(id) <- polarity;
  st.off.(id) <- -1;
  Atomic.set m.count (id + 1);
  after_alloc m (id + 1);
  id

(* Raw decision allocation from the [k] pairs at [buf.(base ..)], in
   their final element order. *)
let alloc_dec_raw m v (buf : int array) base k =
  let id = Atomic.get m.count in
  let st = ensure_node_capacity m (Atomic.get m.store) id in
  let o = reserve_elems m st (2 * k) in
  let st = Atomic.get m.store in
  Array.blit buf base (chunk_of st o) (pos_of o) (2 * k);
  Bytes.unsafe_set st.kind id k_dec;
  st.vnode.(id) <- v;
  st.aux.(id) <- k;
  st.off.(id) <- o;
  Atomic.set m.count (id + 1);
  after_alloc m (id + 1);
  if !Obs.enabled_ref then Attribution.charge_elements k;
  id

(* Counted lock acquisition for the parallel sections: an uncontended
   acquire is one extra branch ([try_lock] succeeds); a failed try is
   counted as contended and falls back to the blocking [lock].  Hold
   times are sampled by the bracketing [hold_start]/[hold_end] pair,
   which only reads the clock while observability is on. *)
let[@inline] lock_counted mu acq cont =
  Atomic.incr acq;
  if not (Mutex.try_lock mu) then begin
    Atomic.incr cont;
    Mutex.lock mu
  end

let[@inline] hold_start () =
  if !Obs.enabled_ref then Unix.gettimeofday () else 0.

let[@inline] hold_end name t0 =
  if !Obs.enabled_ref && t0 > 0. then
    Obs.hist_record name (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9))

let alloc_dec m v buf base k =
  budget_gate m;
  if m.parallel then begin
    lock_counted m.alloc_mu m.lk_alloc_acq m.lk_alloc_cont;
    let id = alloc_dec_raw m v buf base k in
    Mutex.unlock m.alloc_mu;
    id
  end
  else alloc_dec_raw m v buf base k

(* Literal lookup by vtree leaf and polarity (0/1).  Outside a parallel
   section misses allocate directly; inside one, [apply_parallel]
   pre-creates every literal so the table is read-only, and the locked
   double-checked slow path below is defense in depth. *)
let literal_at m leaf polarity =
  let slot = (2 * leaf) + polarity in
  let cached = m.lit_tbl.(slot) in
  if cached >= 0 then cached
  else begin
    budget_gate m;
    if not m.parallel then begin
      let id = alloc_lit_raw m leaf polarity in
      m.lit_tbl.(slot) <- id;
      id
    end
    else begin
      lock_counted m.alloc_mu m.lk_alloc_acq m.lk_alloc_cont;
      let cached = m.lit_tbl.(slot) in
      let id =
        if cached >= 0 then cached
        else begin
          let id = alloc_lit_raw m leaf polarity in
          m.lit_tbl.(slot) <- id;
          id
        end
      in
      Mutex.unlock m.alloc_mu;
      id
    end
  end

let literal m v polarity =
  literal_at m (Vtree.leaf_of_var m.vt v) (Bool.to_int polarity)

let vtree_node m a =
  let st = Atomic.get m.store in
  if Bytes.unsafe_get st.kind a = k_const then None else Some st.vnode.(a)

let equal (a : t) (b : t) = a = b
let is_true _ a = a = 1
let is_false _ a = a = 0

(* Elements of decision [id] as a (prime, sub) list, newest snapshot not
   required: cells are immutable once published. *)
let elements_list st id =
  let k = st.aux.(id) and o = st.off.(id) in
  let c = chunk_of st o and base = pos_of o in
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) ((c.(base + (2 * i)), c.(base + (2 * i) + 1)) :: acc)
  in
  go (k - 1) []

(* Pushes the elements of decision [id] onto the scratch stack, in
   stored order. *)
let push_elements stk st id =
  let k = st.aux.(id) and o = st.off.(id) in
  let base = scratch_alloc stk (2 * k) in
  Array.blit (chunk_of st o) (pos_of o) stk.buf base (2 * k)

(* ------------------------------------------------------------------ *)
(* Sharded cache access                                                *)
(* ------------------------------------------------------------------ *)

(* Missing entries return -1 (node ids are non-negative) so the hot
   path is exception-free.  Sequential mode takes no locks. *)
let cache_find m (shards : int Int_tbl.t array) key =
  let s = cache_shard key in
  if not m.parallel then
    match Int_tbl.find shards.(s) key with
    | r -> r
    | exception Not_found -> -1
  else begin
    let mu = m.cache_mu.(s) in
    lock_counted mu m.lk_cache_acq.(s) m.lk_cache_cont.(s);
    let t0 = hold_start () in
    let r =
      match Int_tbl.find shards.(s) key with
      | r -> r
      | exception Not_found -> -1
    in
    hold_end "sdd.cache_lock_hold_ns" t0;
    Mutex.unlock mu;
    r
  end

let cache_put m (shards : int Int_tbl.t array) key v =
  let s = cache_shard key in
  if not m.parallel then Int_tbl.replace shards.(s) key v
  else begin
    let mu = m.cache_mu.(s) in
    lock_counted mu m.lk_cache_acq.(s) m.lk_cache_cont.(s);
    let t0 = hold_start () in
    Int_tbl.replace shards.(s) key v;
    hold_end "sdd.cache_lock_hold_ns" t0;
    Mutex.unlock mu
  end

(* ------------------------------------------------------------------ *)
(* Node construction: compression, trimming, unique table              *)
(* ------------------------------------------------------------------ *)

(* Find-or-claim of the canonical decision at [v] whose [k] prime-sorted
   pairs are at [buf.(base ..)]. *)
let find_or_alloc m tbl v buf base k =
  let r = utable_find (Atomic.get m.store) tbl v buf base k in
  if r >= 0 then begin
    cache_hit m.cs_unique;
    r
  end
  else begin
    cache_miss m.cs_unique;
    let id = alloc_dec m v buf base k in
    utable_insert_at (Atomic.get m.store) tbl (-1 - r) id;
    id
  end

let unique_intern m v (buf : int array) base k =
  let shard = dec_shard v in
  let tbl = m.unique.(shard) in
  if not m.parallel then find_or_alloc m tbl v buf base k
  else begin
    (* The shard mutex is held across find + alloc + add so two domains
       cannot both allocate the same decision (canonicity requires
       exactly one id per key).  [alloc_dec] nests [alloc_mu] inside the
       shard lock; the lock order is always shard → alloc and
       [alloc_mu] takes no further locks, so there is no cycle.  The
       store is read under the shard lock, so it covers every id the
       shard holds.  A budget trip inside [alloc_dec] must release the
       shard. *)
    let mu = m.unique_mu.(shard) in
    lock_counted mu m.lk_unique_acq.(shard) m.lk_unique_cont.(shard);
    let t0 = hold_start () in
    match find_or_alloc m tbl v buf base k with
    | id ->
      hold_end "sdd.unique_lock_hold_ns" t0;
      Mutex.unlock mu;
      id
    | exception e ->
      hold_end "sdd.unique_lock_hold_ns" t0;
      Mutex.unlock mu;
      raise e
  end

(* The internal kernel threads the domain's scratch stack [stk]; every
   function here leaves its depth as it found it on a normal return. *)

let rec negate_k m stk a =
  let c = cache_find m m.neg_cache a in
  if c >= 0 then begin
    cache_hit m.cs_neg;
    c
  end
  else begin
    cache_miss m.cs_neg;
    let st = Atomic.get m.store in
    let k = Bytes.unsafe_get st.kind a in
    let r =
      if k = k_const then 1 - st.aux.(a)
      else if k = k_lit then literal_at m st.vnode.(a) (1 - st.aux.(a))
      else begin
        let n = st.aux.(a) in
        let lo = stk.sp in
        push_elements stk st a;
        for i = 0 to n - 1 do
          let s = negate_k m stk stk.buf.(lo + (2 * i) + 1) in
          stk.buf.(lo + (2 * i) + 1) <- s
        done;
        reverse_pairs stk.buf lo n;
        mk_decision_k m stk st.vnode.(a) lo
      end
    in
    cache_put m m.neg_cache a r;
    cache_put m m.neg_cache r a;
    r
  end

(* Builds the node for a decision at vtree node [v] from the pairs on
   the stack between [lo] and the top, in production order; their
   primes are pairwise disjoint and jointly exhaustive (some may be ⊥).
   Pops them.

   Compression merges the pairs that share a sub by disjoining their
   primes.  The disjunctions allocate, so their order fixes the node
   ids: groups run by ascending last occurrence of their sub, and a
   group's primes are disjoined in production order.  Sorting
   (sub, index) keys lines each group up in production order; sorting
   (last index, group) keys orders the groups.

   A canonical manager then trims, sorts the elements by prime and
   interns the decision in the unique table.  A counting-only (d-DNNF)
   manager skips the unique lookup and stores the elements by
   descending last occurrence: compression by sub {e id} is
   semantics-preserving whatever the ids mean, and without it
   conjunction chains double their fanout per clause (exponential
   blowup on E19-style chains).  The primes stay pairwise disjoint and
   jointly exhaustive, which keeps the result deterministic,
   decomposable and structured — the invariants [model_count] /
   [probability*] rely on — at the cost of canonicity: equal
   {e functions} may still get distinct ids.  Only id-safe trims are
   applied; the singleton trim is sound because the primes' disjunction
   is ⊤ by exhaustiveness even when its id is not 1. *)
and mk_decision_k m stk v lo =
  let n = (stk.sp - lo) / 2 in
  (* Regions above the pairs: sort keys [kb], groups [gb], compressed
     pairs [cb]. *)
  let kb = scratch_alloc stk (4 * n) in
  let gb = kb + n and cb = kb + (2 * n) in
  let buf = stk.buf in
  let nk = ref 0 in
  for i = 0 to n - 1 do
    if buf.(lo + (2 * i)) <> 0 then begin
      buf.(kb + !nk) <- pair_key buf.(lo + (2 * i) + 1) i;
      incr nk
    end
  done;
  let nk = !nk in
  sort_range buf kb nk;
  let ng = ref 0 and j = ref 0 in
  while !j < nk do
    let start = !j and s = buf.(kb + !j) lsr 31 in
    while !j < nk && buf.(kb + !j) lsr 31 = s do
      incr j
    done;
    buf.(gb + !ng) <- pair_key (buf.(kb + !j - 1) land mask31) start;
    incr ng
  done;
  let ng = !ng in
  sort_range buf gb ng;
  for g = 0 to ng - 1 do
    let start = stk.buf.(gb + g) land mask31 in
    let s = stk.buf.(kb + start) lsr 31 in
    let p = ref stk.buf.(lo + (2 * (stk.buf.(kb + start) land mask31))) in
    let j = ref (start + 1) in
    while !j < nk && stk.buf.(kb + !j) lsr 31 = s do
      let i = stk.buf.(kb + !j) land mask31 in
      p := apply_k m stk false !p stk.buf.(lo + (2 * i));
      incr j
    done;
    stk.buf.(cb + (2 * g)) <- !p;
    stk.buf.(cb + (2 * g) + 1) <- s
  done;
  let buf = stk.buf in
  let r =
    if ng = 0 then 0
    else if ng = 1 then begin
      (* Exhaustive primes with one shared sub: ∨ᵢ(pᵢ ∧ s) ≡ s. *)
      assert ((not m.canonical) || buf.(cb) = 1);
      buf.(cb + 1)
    end
    else if ng = 2 && buf.(cb + 1) = 1 && buf.(cb + 3) = 0 then buf.(cb)
    else if ng = 2 && buf.(cb + 1) = 0 && buf.(cb + 3) = 1 then buf.(cb + 2)
    else begin
      if !Obs.enabled_ref then Obs.hist_record "sdd.decision_fanout" ng;
      if m.canonical then begin
        sort_pairs_by_prime buf cb ng;
        unique_intern m v buf cb ng
      end
      else begin
        reverse_pairs buf cb ng;
        alloc_dec m v buf cb ng
      end
    end
  in
  stk.sp <- lo;
  r

(* ------------------------------------------------------------------ *)
(* Apply                                                               *)
(* ------------------------------------------------------------------ *)

(* Pushes the elements of [a] viewed as a decision at vtree node [v] (an
   ancestor of a's vtree node, or the node itself). *)
and push_at m stk v a =
  let st = Atomic.get m.store in
  if Bytes.unsafe_get st.kind a = k_dec && st.vnode.(a) = v then
    push_elements stk st a
  else begin
    let u = st.vnode.(a) in
    if Vtree.in_left_subtree m.vt v u then begin
      push2 stk a 1;
      let na = negate_k m stk a in
      push2 stk na 0
    end
    else begin
      assert (Vtree.in_right_subtree m.vt v u);
      push2 stk 1 a
    end
  end

and apply_k m stk op_and a b =
  let neutral = if op_and then 1 else 0 in
  let absorbing = if op_and then 0 else 1 in
  if a = absorbing || b = absorbing then absorbing
  else if a = neutral then b
  else if b = neutral then a
  else if a = b then a
  else begin
    let st = Atomic.get m.store in
    let va = st.vnode.(a) and vb = st.vnode.(b) in
    (* A complement pair always shares a vtree node. *)
    if va = vb && cache_find m m.neg_cache a = b then absorbing
    else begin
      let cache = if op_and then m.and_cache else m.or_cache in
      let key = pair_key (Stdlib.min a b) (Stdlib.max a b) in
      let cstat = if op_and then m.cs_and else m.cs_or in
      let cached = cache_find m cache key in
      if cached >= 0 then begin
        cache_hit cstat;
        cached
      end
      else begin
        cache_miss cstat;
        if !Obs.enabled_ref then Attribution.charge_apply_miss ();
        let r =
          if va = vb && Vtree.is_leaf m.vt va then begin
            (* Two distinct literals on the same variable. *)
            if op_and then 0 else 1
          end
          else begin
            let v = Vtree.lca m.vt va vb in
            let v =
              (* If one argument sits at [v] it must be a decision there;
                 if both are below on the same side, lca can be a strict
                 descendant of where we must decide — but lca of two
                 distinct nodes is internal unless equal. *)
              if Vtree.is_leaf m.vt v then Option.get (Vtree.parent m.vt v)
              else v
            in
            let lo = stk.sp in
            push_at m stk v a;
            let na = (stk.sp - lo) / 2 in
            push_at m stk v b;
            let nb = ((stk.sp - lo) / 2) - na in
            let out = stk.sp in
            for i = 0 to na - 1 do
              for j = 0 to nb - 1 do
                let ea = lo + (2 * i) and eb = lo + (2 * (na + j)) in
                let p = apply_k m stk true stk.buf.(ea) stk.buf.(eb) in
                if p <> 0 then begin
                  let s =
                    apply_k m stk op_and stk.buf.(ea + 1) stk.buf.(eb + 1)
                  in
                  push2 stk p s
                end
              done
            done;
            if !Obs.enabled_ref then
              Obs.hist_record "sdd.apply_elements" ((stk.sp - out) / 2);
            let r = mk_decision_k m stk v out in
            stk.sp <- lo;
            r
          end
        in
        cache_put m cache key r;
        r
      end
    end
  end

(* Public entry points: on an exception the stack goes back to the
   depth the call found it at (closure-free, unlike [with_scratch]). *)
let apply m op_and a b =
  let stk = scratch () in
  let base = stk.sp in
  match apply_k m stk op_and a b with
  | r -> r
  | exception e ->
    stk.sp <- base;
    raise e

let conjoin m a b = apply m true a b
let disjoin m a b = apply m false a b

let negate m a =
  let stk = scratch () in
  let base = stk.sp in
  match negate_k m stk a with
  | r -> r
  | exception e ->
    stk.sp <- base;
    raise e

let conjoin_list m l = List.fold_left (conjoin m) 1 l
let disjoin_list m l = List.fold_left (disjoin m) 0 l

(* The list-taking constructor: pushes [elems] in production order (the
   reverse of the list) and compresses on the stack. *)
let mk_decision m v elems =
  with_scratch (fun stk ->
      let lo = stk.sp in
      List.iter (fun (p, s) -> push2 stk p s) elems;
      reverse_pairs stk.buf lo ((stk.sp - lo) / 2);
      mk_decision_k m stk v lo)

(* ------------------------------------------------------------------ *)
(* Conditioning                                                        *)
(* ------------------------------------------------------------------ *)

let condition m a x value =
  match Vtree.leaf_of_var m.vt x with
  | exception Not_found ->
    (* x is not in the vtree, so no node of the manager mentions it. *)
    a
  | lx ->
    let num_nodes = Vtree.num_nodes m.vt in
    with_scratch @@ fun stk ->
    let rec go a =
      let st = Atomic.get m.store in
      let k = Bytes.unsafe_get st.kind a in
      if k = k_const then a
      else if k = k_lit then begin
        if st.vnode.(a) = lx then (if st.aux.(a) = Bool.to_int value then 1 else 0)
        else a
      end
      else begin
        let v = st.vnode.(a) in
        if not (Vtree.is_ancestor m.vt v lx) then a
        else begin
          let key = (((a * num_nodes) + lx) lsl 1) lor Bool.to_int value in
          let cached = cache_find m m.cond_cache key in
          if cached >= 0 then begin
            cache_hit m.cs_cond;
            cached
          end
          else begin
            cache_miss m.cs_cond;
            let in_left = Vtree.is_ancestor m.vt (Vtree.left m.vt v) lx in
            let n = st.aux.(a) in
            let lo = stk.sp in
            push_elements stk st a;
            for i = 0 to n - 1 do
              let e = lo + (2 * i) + if in_left then 0 else 1 in
              let x = go stk.buf.(e) in
              stk.buf.(e) <- x
            done;
            reverse_pairs stk.buf lo n;
            let r = mk_decision_k m stk v lo in
            cache_put m m.cond_cache key r;
            r
          end
        end
      end
    in
    go a
(* ------------------------------------------------------------------ *)
(* Generational compaction                                             *)
(* ------------------------------------------------------------------ *)

(* The unique table's keys are the arena cells themselves, so a rebuild
   re-slots every live decision id. *)
let rebuild_unique m =
  (* A non-canonical manager never consults the unique table, and its
     element lists are not prime-sorted, so there is no table to rebuild
     after compaction. *)
  if m.canonical then begin
    Array.iter utable_reset m.unique;
    let st = Atomic.get m.store in
    let n = Atomic.get m.count in
    for id = 2 to n - 1 do
      if Bytes.unsafe_get st.kind id = k_dec then
        utable_add st m.unique.(dec_shard st.vnode.(id)) id
    done
  end

let saved_entries shards =
  Array.fold_left
    (fun acc tbl -> Int_tbl.fold (fun k r acc -> (k, r) :: acc) tbl acc)
    [] shards

let reset_caches m =
  Array.iter Int_tbl.reset m.and_cache;
  Array.iter Int_tbl.reset m.or_cache;
  Array.iter Int_tbl.reset m.neg_cache;
  Array.iter Int_tbl.reset m.cond_cache

let seed_neg m =
  cache_put m m.neg_cache 0 1;
  cache_put m m.neg_cache 1 0

(* Compaction: mark live nodes from [roots], relocate them into
   exact-fit arrays with a monotone remap (ascending old id → ascending
   new id, so prime-sorted element order and unique keys stay
   canonical), rebuild the unique table and literal table, and rewrite
   the packed-int caches through the remap.  Supersedes the reachability
   GC that dynamic edits perform on their own roots: it reclaims
   tombstones and dead intermediates across the whole manager, and
   resets the per-node heap overhead to the live set.

   All raising (the budget poll during marking) happens before any
   mutation, so a mid-compaction trip leaves the manager untouched —
   [dynamic_edit] relies on this to keep its transaction rollback
   simple.  Returns the remapped roots, positionally. *)
let compact_roots m (roots : int array) : int array =
  Budget.check m.budget;
  let t0 = Unix.gettimeofday () in
  let st = Atomic.get m.store in
  let n = Atomic.get m.count in
  let old_node_cap = Bytes.length st.kind in
  let old_elems_cap = elems_capacity m st in
  (* -- Mark (iterative: E20-scale chains overflow the OCaml stack). -- *)
  let live = Bytes.make n '\000' in
  Bytes.unsafe_set live 0 '\001';
  Bytes.unsafe_set live 1 '\001';
  let n_live = ref 2 and live_pairs = ref 0 in
  (* Literals always survive: lit_tbl must stay total over created
     literals, and there are at most two per variable. *)
  for id = 2 to n - 1 do
    if Bytes.unsafe_get st.kind id = k_lit then begin
      Bytes.unsafe_set live id '\001';
      incr n_live
    end
  done;
  let stack = ref (Array.make 1024 0) in
  let sp = ref 0 in
  let push x =
    if !sp >= Array.length !stack then begin
      let s' = Array.make (2 * Array.length !stack) 0 in
      Array.blit !stack 0 s' 0 !sp;
      stack := s'
    end;
    !stack.(!sp) <- x;
    incr sp
  in
  Array.iter
    (fun r -> if r >= 2 && Bytes.unsafe_get live r = '\000' then push r)
    roots;
  while !sp > 0 do
    decr sp;
    let id = !stack.(!sp) in
    if Bytes.unsafe_get live id = '\000' then begin
      Budget.poll m.budget;
      Bytes.unsafe_set live id '\001';
      if Bytes.unsafe_get st.kind id = k_dec then begin
        incr n_live;
        let k = st.aux.(id) and o = st.off.(id) in
        let c = chunk_of st o and base = pos_of o in
        live_pairs := !live_pairs + k;
        for i = 0 to (2 * k) - 1 do
          let x = c.(base + i) in
          if x >= 2 && Bytes.unsafe_get live x = '\000' then push x
        done
      end
    end
  done;
  (* -- Remap: monotone in old id, so relative order is preserved. -- *)
  let remap = Array.make (Stdlib.max n 2) (-1) in
  remap.(0) <- 0;
  remap.(1) <- 1;
  let next = ref 2 in
  for id = 2 to n - 1 do
    if Bytes.unsafe_get live id = '\001' then begin
      remap.(id) <- !next;
      incr next
    end
  done;
  (* -- Relocate into exact-fit arrays, the elements into one chunk. -- *)
  let node_cap = Stdlib.max 1024 !next in
  let elems_cap = Stdlib.max 1024 (2 * !live_pairs) in
  let kind = Bytes.make node_cap k_tomb in
  let vnode = Array.make node_cap (-1) in
  let aux = Array.make node_cap 0 in
  let off = Array.make node_cap (-1) in
  let elems = Array.make elems_cap 0 in
  Bytes.unsafe_set kind 0 k_const;
  Bytes.unsafe_set kind 1 k_const;
  aux.(1) <- 1;
  let epos = ref 0 in
  for id = 2 to n - 1 do
    if Bytes.unsafe_get live id = '\001' then begin
      let nid = remap.(id) in
      let kch = Bytes.unsafe_get st.kind id in
      Bytes.unsafe_set kind nid kch;
      vnode.(nid) <- st.vnode.(id);
      aux.(nid) <- st.aux.(id);
      if kch = k_dec then begin
        let k = st.aux.(id) and o = st.off.(id) in
        let c = chunk_of st o and base = pos_of o in
        off.(nid) <- !epos;
        for i = 0 to (2 * k) - 1 do
          elems.(!epos + i) <- remap.(c.(base + i))
        done;
        epos := !epos + (2 * k)
      end
    end
  done;
  (* Save cache entries before the store flips (decode needs nothing,
     but keep mutation strictly after all reads of the old state). *)
  let saved_and = saved_entries m.and_cache in
  let saved_or = saved_entries m.or_cache in
  let saved_neg = saved_entries m.neg_cache in
  let saved_cond = saved_entries m.cond_cache in
  let chunks = Array.make 8 [||] in
  chunks.(0) <- elems;
  Atomic.set m.store { kind; vnode; aux; off; chunks };
  Atomic.set m.count !next;
  m.chunk_n <- 1;
  m.chunk_fill <- !epos;
  (* Literal table: same vtree, new ids. *)
  Array.fill m.lit_tbl 0 (Array.length m.lit_tbl) (-1);
  for nid = 2 to !next - 1 do
    if Bytes.unsafe_get kind nid = k_lit then
      m.lit_tbl.((2 * vnode.(nid)) + aux.(nid)) <- nid
  done;
  rebuild_unique m;
  (* Caches: reinsert through the remap, dropping entries that touch a
     collected node.  The remap is monotone, so commuted apply keys
     stay min/max-ordered and stored element sort orders were already
     preserved above. *)
  reset_caches m;
  let reinsert_apply shards entries =
    List.iter
      (fun (k, r) ->
        let ka = k lsr 31 and kb = k land mask31 in
        if remap.(ka) >= 0 && remap.(kb) >= 0 && remap.(r) >= 0 then begin
          let a = remap.(ka) and b = remap.(kb) in
          cache_put m shards (pair_key (Stdlib.min a b) (Stdlib.max a b))
            remap.(r)
        end)
      entries
  in
  reinsert_apply m.and_cache saved_and;
  reinsert_apply m.or_cache saved_or;
  List.iter
    (fun (a, b) ->
      if remap.(a) >= 0 && remap.(b) >= 0 then
        cache_put m m.neg_cache remap.(a) remap.(b))
    saved_neg;
  let nn = Vtree.num_nodes m.vt in
  List.iter
    (fun (k, r) ->
      let value = k land 1 in
      let k2 = k lsr 1 in
      let ka = k2 / nn and lx = k2 mod nn in
      if remap.(ka) >= 0 && remap.(r) >= 0 then
        cache_put m m.cond_cache
          ((((remap.(ka) * nn) + lx) lsl 1) lor value)
          remap.(r))
    saved_cond;
  (* Bookkeeping + telemetry (satellite: every compaction leaves a
     flight-recorder note with relocation and pause figures). *)
  let relocated = !next - 2 in
  let words_before = (3 * old_node_cap) + (old_node_cap / 8) + old_elems_cap in
  let words_after = (3 * node_cap) + (node_cap / 8) + elems_cap in
  let reclaimed = Stdlib.max 0 (words_before - words_after) in
  m.dead_nodes <- 0;
  m.dead_elems <- 0;
  m.generation <- m.generation + 1;
  m.compactions_done <- m.compactions_done + 1;
  m.last_compact_count <- !next;
  let pause_us = int_of_float ((Unix.gettimeofday () -. t0) *. 1e6) in
  if !Obs.enabled_ref then begin
    Obs.incr "sdd.compaction";
    Attribution.charge_compaction_pause pause_us;
    Obs.event "sdd.compaction"
      [
        ("relocated", Obs.Json.Int relocated);
        ("reclaimed_words", Obs.Json.Int reclaimed);
        ("pause_us", Obs.Json.Int pause_us);
        ("generation", Obs.Json.Int m.generation);
      ]
  end;
  if !Flight_recorder.enabled_ref then
    Flight_recorder.record Flight_recorder.Note "sdd.compaction"
      ~dur_s:(float_of_int pause_us /. 1e6)
      ~args:
        [
          ("relocated", string_of_int relocated);
          ("reclaimed_words", string_of_int reclaimed);
          ("pause_us", string_of_int pause_us);
          ("generation", string_of_int m.generation);
        ];
  Array.map (fun r -> if r < 2 then r else remap.(r)) roots

let compact m root = (compact_roots m [| root |]).(0)

(* Due when the manager has allocated [compact_every] nodes since the
   last pass or edits have stranded that many tombstones. *)
let compact_due m =
  m.compact_every <> max_int
  && (Atomic.get m.count - m.last_compact_count >= m.compact_every
     || m.dead_nodes >= m.compact_every)

let maybe_compact m root = if compact_due m then compact m root else root
(* ------------------------------------------------------------------ *)
(* Dynamic vtree edits                                                 *)
(* ------------------------------------------------------------------ *)

(* A local move (rotation or child swap) at an internal vtree node
   changes how functions straddling that node decompose, but nothing
   else: the decisions that must be rebuilt semantically are exactly
   those normalized to the edited node (and, for rotations, to the
   rotated child).  Every other node survives with at most a renumbered
   vtree id, because [Vtree.of_shape] assigns pre-order ids: the edit
   shifts the id blocks of the three grandchild subtrees by constant
   offsets and leaves everything outside the edited subtree in place.

   The rewrite walks the nodes reachable from the caller's root in
   dependency order (elements before the decision referencing them —
   ascending ids are NOT that order once the manager has been edited
   before, because a decision can keep a small id through a unique-table
   claim while an earlier edit rebuilt its elements to freshly allocated
   larger ids), maintaining a forwarding array [fwd] with the invariant
   that [fwd.(a)] is the new canonical id of the function of old node
   [a]:

   - literals keep their ids (the leaf id is remapped);
   - an unaffected decision keeps its id unless an equal node was
     already created by an earlier rebuild, in which case it forwards to
     it — the unique table is re-keyed either way;
   - an affected decision is recomputed as [∨ᵢ fwd(pᵢ) ∧ fwd(sᵢ)] with
     the ordinary apply, which renormalizes it to the new vtree.

   The walk doubles as a garbage collection: nodes not reachable from
   the root (dead compile intermediates, leftovers of earlier edits) are
   tombstoned instead of rewritten, so a long chain of edits — the
   in-manager vtree search applies and reverts hundreds — costs
   O(reachable) per edit rather than O(allocated); tombstones accumulate
   in the dead counters until [compact] relocates the live set.  This is
   exactly the documented handle contract: an edit invalidates every
   outstanding handle except the forwarded root it returns.

   The apply/negate/condition caches are snapshotted, cleared for the
   duration of the rebuild (their entries reference old ids), and then
   reinserted with keys and values passed through [fwd] — a cached
   result is the canonical node of a function, and [fwd] maps old
   canonical ids to new canonical ids of the same functions, so entries
   whose nodes survive the collection are corrected, and only entries
   referencing dropped nodes are discarded. *)

let subtree_span vt u = (2 * Vtree.num_vars_below vt u) - 1

let dynamic_edit m move root =
  (* The edit rewrites nodes by unique-table keys; a counting-only
     manager has none (and no canonicity to restore), so the move is
     meaningless there. *)
  if not m.canonical then
    invalid_arg "Sdd.apply_move: dynamic edits require a canonical manager";
  Obs.span "sdd.edit" @@ fun () ->
  (* The edit is transactional under a budget.  A rotation can rebuild
     affected decisions through [disjoin]/[conjoin], and on adversarial
     inputs (inversion lineage) that rebuild blows up — so it must stay
     pollable, yet a trip mid-rebuild would leave the tables
     half-migrated.  Resolution: snapshot the pre-edit state (arena
     cells up to [count], element chunks up to the fill, lit_tbl,
     and the caches already saved below for forwarding), run the
     rebuild with the budget live, and on [Budget.Exhausted] roll the
     manager back to the snapshot before re-raising.  Callers always
     observe either the completed edit or the untouched pre-edit
     manager.  Unbudgeted edits skip the snapshot entirely. *)
  Budget.check m.budget;
  let old_vt = m.vt in
  (* Validates the move (raises Invalid_argument before any mutation). *)
  let new_vt = Vtree.apply_move old_vt move in
  let nn = Vtree.num_nodes old_vt in
  let map = Array.init nn Fun.id in
  let affected = Array.make nn false in
  let shift u by =
    let lo = u and len = subtree_span old_vt u in
    for i = lo to lo + len - 1 do
      map.(i) <- i + by
    done
  in
  (match move with
  | Vtree.Swap v ->
    affected.(v) <- true;
    let a = Vtree.left old_vt v and b = Vtree.right old_vt v in
    let sa = subtree_span old_vt a and sb = subtree_span old_vt b in
    shift a sb;
    shift b (-sa)
  | Vtree.Rotate_right v ->
    (* ((a b) c) -> (a (b c)): only the a-block moves (one slot left,
       into the place of the dissolved child); b and c keep their ids. *)
    let w = Vtree.left old_vt v in
    affected.(v) <- true;
    affected.(w) <- true;
    map.(w) <- -1;
    shift (Vtree.left old_vt w) (-1)
  | Vtree.Rotate_left v ->
    (* (a (b c)) -> ((a b) c): the a-block moves one slot right, under
       the fresh internal node; b and c keep their ids. *)
    let w = Vtree.right old_vt v in
    affected.(v) <- true;
    affected.(w) <- true;
    map.(w) <- -1;
    shift (Vtree.left old_vt v) 1);
  let old_count = Atomic.get m.count in
  let old_chunk_n = m.chunk_n and old_chunk_fill = m.chunk_fill in
  let saved_and = saved_entries m.and_cache in
  let saved_or = saved_entries m.or_cache in
  let saved_neg = saved_entries m.neg_cache in
  let saved_cond = saved_entries m.cond_cache in
  (* Rollback snapshot, taken only when the budget can trip: the arena
     prefix (the rebuild rewrites literal leaves and unaffected
     decisions in place), the element chunks in use (the current one up
     to its fill) and lit_tbl.  The caches are already saved
     above, and the unique table is reconstructible from the restored
     cells — tombstoning keeps it in bijection with live decisions. *)
  let snapshot =
    if m.budget.Budget.active then begin
      let st = Atomic.get m.store in
      Some
        ( Bytes.sub st.kind 0 old_count,
          Array.sub st.vnode 0 old_count,
          Array.sub st.aux 0 old_count,
          Array.sub st.off 0 old_count,
          Array.init old_chunk_n (fun i ->
              if i < old_chunk_n - 1 then Array.copy st.chunks.(i)
              else Array.sub st.chunks.(i) 0 old_chunk_fill),
          Array.copy m.lit_tbl,
          m.dead_nodes,
          m.dead_elems )
    end
    else None
  in
  let rollback (s_kind, s_vnode, s_aux, s_off, s_chunks, s_lit, s_dn, s_de) =
    m.vt <- old_vt;
    let st = Atomic.get m.store in
    Bytes.blit s_kind 0 st.kind 0 old_count;
    Array.blit s_vnode 0 st.vnode 0 old_count;
    Array.blit s_aux 0 st.aux 0 old_count;
    Array.blit s_off 0 st.off 0 old_count;
    Array.iteri
      (fun i c -> Array.blit c 0 st.chunks.(i) 0 (Array.length c))
      s_chunks;
    (* Chunks opened by the edit are dropped. *)
    Array.fill st.chunks old_chunk_n (m.chunk_n - old_chunk_n) [||];
    Atomic.set m.count old_count;
    m.chunk_n <- old_chunk_n;
    m.chunk_fill <- old_chunk_fill;
    m.dead_nodes <- s_dn;
    m.dead_elems <- s_de;
    Array.blit s_lit 0 m.lit_tbl 0 (Array.length s_lit);
    reset_caches m;
    List.iter (fun (k, r) -> cache_put m m.and_cache k r) saved_and;
    List.iter (fun (k, r) -> cache_put m m.or_cache k r) saved_or;
    List.iter (fun (k, r) -> cache_put m m.neg_cache k r) saved_neg;
    List.iter (fun (k, r) -> cache_put m m.cond_cache k r) saved_cond;
    rebuild_unique m;
    if !Obs.enabled_ref then Obs.incr "sdd.edit.rolled_back"
  in
  let on_trip handler f =
    try f () with Budget.Exhausted _ as e -> handler (); raise e
  in
  on_trip (fun () -> Option.iter rollback snapshot) @@ fun () ->
  reset_caches m;
  Array.iter utable_clear m.unique;
  Array.fill m.lit_tbl 0 (Array.length m.lit_tbl) (-1);
  m.vt <- new_vt;
  seed_neg m;
  let fwd = Array.init old_count Fun.id in
  let live = Array.make old_count false in
  live.(0) <- true;
  live.(1) <- true;
  (* Literals first: they depend on nothing, and refilling lit_tbl up
     front keeps [literal] (hence [negate]) from allocating duplicate
     literal nodes during the decision rebuilds below.  All literals are
     kept live regardless of reachability — there are at most two per
     variable and lit_tbl must stay consistent. *)
  let st0 = Atomic.get m.store in
  for id = 2 to old_count - 1 do
    if Bytes.unsafe_get st0.kind id = k_lit then begin
      let leaf' = map.(st0.vnode.(id)) in
      st0.vnode.(id) <- leaf';
      m.lit_tbl.((2 * leaf') + st0.aux.(id)) <- id;
      live.(id) <- true
    end
  done;
  (* Decisions reachable from the root, in dependency order (elements
     recursively before the decision referencing them). *)
  let rebuilt = ref 0 in
  let rec process id =
    if id >= 2 && id < old_count && not live.(id) then begin
      live.(id) <- true;
      let st = Atomic.get m.store in
      if Bytes.unsafe_get st.kind id = k_dec then begin
        let u = st.vnode.(id) in
        let pairs = elements_list st id in
        List.iter
          (fun (p, s) ->
            process p;
            process s)
          pairs;
        if affected.(u) then begin
          incr rebuilt;
          fwd.(id) <-
            List.fold_left
              (fun acc (p, s) -> disjoin m acc (conjoin m fwd.(p) fwd.(s)))
              0 pairs
        end
        else begin
          (* The forwarded, prime-sorted elements go on the scratch
             stack as the unique-table candidate. *)
          let u' = map.(u) in
          let k = List.length pairs in
          let stk = scratch () in
          let base = scratch_alloc stk (2 * k) in
          List.iteri
            (fun i (p, s) ->
              stk.buf.(base + (2 * i)) <- fwd.(p);
              stk.buf.(base + (2 * i) + 1) <- fwd.(s))
            pairs;
          sort_pairs_by_prime stk.buf base k;
          let tbl = m.unique.(dec_shard u') in
          (* The rebuilds above may have grown the store: refetch it. *)
          let st = Atomic.get m.store in
          let r = utable_find st tbl u' stk.buf base k in
          if r >= 0 then fwd.(id) <- r
          else begin
            (* Claim in place: rewrite the cells, then slot the id. *)
            st.vnode.(id) <- u';
            let o = st.off.(id) in
            Array.blit stk.buf base (chunk_of st o) (pos_of o) (2 * k);
            utable_insert_at st tbl (-1 - r) id
          end;
          stk.sp <- base
        end
      end
    end
  in
  process root;
  (* Tombstone every node that forwarded away or fell unreachable: its
     data still describes the old vtree, and a later edit must not
     mistake it for a live decision (it could steal a unique-table claim
     from the live node of the same function).  Dead ids are never
     referenced again — every surviving handle and cache entry goes
     through [fwd], and entries touching dead nodes are dropped. *)
  let tombstoned = ref 0 in
  let stf = Atomic.get m.store in
  for id = 2 to old_count - 1 do
    if (not live.(id)) || fwd.(id) <> id then begin
      let kch = Bytes.unsafe_get stf.kind id in
      if kch <> k_tomb then begin
        if kch = k_dec then m.dead_elems <- m.dead_elems + stf.aux.(id);
        Bytes.unsafe_set stf.kind id k_tomb;
        m.dead_nodes <- m.dead_nodes + 1;
        incr tombstoned
      end
    end
  done;
  (* Reinsert the cache entries whose nodes survived, under forwarded
     keys; entries referencing collected nodes are dropped. *)
  let reinsert_apply shards entries =
    List.iter
      (fun (k, r) ->
        let ka = k lsr 31 and kb = k land mask31 in
        if live.(ka) && live.(kb) && live.(r) then begin
          let a = fwd.(ka) and b = fwd.(kb) in
          cache_put m shards
            (pair_key (Stdlib.min a b) (Stdlib.max a b))
            fwd.(r)
        end)
      entries
  in
  reinsert_apply m.and_cache saved_and;
  reinsert_apply m.or_cache saved_or;
  List.iter
    (fun (a, b) ->
      if live.(a) && live.(b) then cache_put m m.neg_cache fwd.(a) fwd.(b))
    saved_neg;
  List.iter
    (fun (k, r) ->
      let value = k land 1 in
      let k2 = k lsr 1 in
      let ka = k2 / nn in
      if live.(ka) && live.(r) then begin
        let a = fwd.(ka) and lx = map.(k2 mod nn) in
        cache_put m m.cond_cache
          ((((a * nn) + lx) lsl 1) lor value)
          fwd.(r)
      end)
    saved_cond;
  if !Obs.enabled_ref then begin
    Obs.incr
      (match move with
      | Vtree.Swap _ -> "sdd.edit.swap"
      | Vtree.Rotate_left _ -> "sdd.edit.rotate_left"
      | Vtree.Rotate_right _ -> "sdd.edit.rotate_right");
    Obs.incr ~by:!rebuilt "sdd.edit.rebuilt_decisions";
    Obs.incr ~by:!tombstoned "sdd.edit.tombstoned";
    Obs.hist_record "sdd.edit.tombstoned_per_edit" !tombstoned;
    probe_occupancy m
  end;
  (* Opt-in generational compaction rides the same transaction: a
     budget trip inside [compact] (which only raises before mutating)
     rolls the whole edit back. *)
  maybe_compact m fwd.(root)

let apply_move = dynamic_edit
let swap m v root = dynamic_edit m (Vtree.Swap v) root
let rotate_left m v root = dynamic_edit m (Vtree.Rotate_left v) root
let rotate_right m v root = dynamic_edit m (Vtree.Rotate_right v) root
(* ------------------------------------------------------------------ *)
(* Sharded parallel apply                                              *)
(* ------------------------------------------------------------------ *)

(* Pre-create both polarities of every vtree variable so lit_tbl is
   read-only inside the parallel section ([Domain.spawn] publishes the
   entries to the workers). *)
let prepare_literals m =
  List.iter
    (fun v ->
      ignore (literal m v true);
      ignore (literal m v false))
    (Vtree.variables m.vt)

(* Conjoin each pair in one shared manager, fanned out over domains.
   Sound for vtree-independent pairs (disjoint unique shards, disjoint
   subproblems) and still correct — just contended — otherwise: the
   unique shard mutex is held across find+alloc+add so canonicity
   survives races, every allocation serializes on [alloc_mu], and cache
   shards are locked per access.  [domains = 1] (or a single pair) runs
   the plain sequential path with the locks disarmed, so ablations
   compare against the true baseline. *)
let apply_parallel ?domains m pairs =
  let domains =
    match domains with Some d -> d | None -> Obs.Worker.default_domains ()
  in
  if domains < 1 then invalid_arg "Sdd.apply_parallel: domains must be >= 1";
  if m.parallel then
    invalid_arg "Sdd.apply_parallel: manager already in a parallel section";
  match pairs with
  | [] -> []
  | _ when domains = 1 || List.length pairs = 1 ->
    List.map (fun (a, b) -> conjoin m a b) pairs
  | _ ->
    Obs.span "sdd.apply_parallel" @@ fun () ->
    if !Obs.enabled_ref then begin
      Obs.incr "sdd.apply_parallel";
      Obs.gauge_set "sdd.apply_parallel.domains" domains
    end;
    prepare_literals m;
    m.parallel <- true;
    (* Snapshot the contention counters around the section so the delta
       can be republished as ordinary Obs counters: the per-manager
       Atomics survive for [contention], while the counters make the
       section's lock behaviour visible to the metrics/OpenMetrics
       exporters without holding a manager reference. *)
    let sum arr = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 arr in
    let snap () =
      ( sum m.lk_unique_acq,
        sum m.lk_unique_cont,
        sum m.lk_cache_acq,
        sum m.lk_cache_cont,
        Atomic.get m.lk_alloc_acq,
        Atomic.get m.lk_alloc_cont )
    in
    let ua0, uc0, ca0, cc0, aa0, ac0 = snap () in
    Fun.protect
      ~finally:(fun () ->
        m.parallel <- false;
        if !Obs.enabled_ref then begin
          let ua, uc, ca, cc, aa, ac = snap () in
          Obs.incr ~by:(ua - ua0) "sdd.unique_lock.acquisitions";
          Obs.incr ~by:(uc - uc0) "sdd.unique_lock.contended";
          Obs.incr ~by:(ca - ca0) "sdd.cache_lock.acquisitions";
          Obs.incr ~by:(cc - cc0) "sdd.cache_lock.contended";
          Obs.incr ~by:(aa - aa0) "sdd.alloc_lock.acquisitions";
          Obs.incr ~by:(ac - ac0) "sdd.alloc_lock.contended"
        end)
      (fun () ->
        Obs.Worker.parallel_map ~domains (fun (a, b) -> conjoin m a b) pairs)

(* Tree reduction over [apply_parallel]: each round conjoins adjacent
   pairs in parallel until one root remains. *)
let conjoin_parallel ?domains m roots =
  let rec pair_up = function
    | a :: b :: rest -> (a, b) :: pair_up rest
    | [ a ] -> [ (a, 1) ]
    | [] -> []
  in
  let rec round = function
    | [] -> 1
    | [ r ] -> r
    | rs -> round (apply_parallel ?domains m (pair_up rs))
  in
  round roots

(* ------------------------------------------------------------------ *)
(* Structure and views                                                 *)
(* ------------------------------------------------------------------ *)

let decision m v elems =
  if Vtree.is_leaf m.vt v then invalid_arg "Sdd.decision: leaf vtree node";
  mk_decision m v elems

(* Cross-manager transfer: rebuild [root]'s function inside [dst],
   mapping vtree nodes through [map].  As long as the mapped fragment of
   [dst]'s vtree has the same shape and variables as [src]'s (the
   contract [Vtree.of_forest] offsets satisfy), every source decision is
   a valid partition at the mapped node, so the rebuild goes through
   [mk_decision] — re-canonicalized in [dst]'s unique table — in one
   memoized O(size) pass.  This is how per-component SDDs compiled in
   independent managers are conjoined under a composed vtree.  No
   compaction fires inside the import: the memo maps source ids to
   [dst] ids and a relocation would dangle its values. *)
let import ~dst ~map src root =
  let memo = Int_tbl.create 256 in
  with_scratch @@ fun stk ->
  let rec go a =
    match Int_tbl.find_opt memo a with
    | Some b -> b
    | None ->
      let st = Atomic.get src.store in
      let k = Bytes.unsafe_get st.kind a in
      let b =
        if k = k_const then st.aux.(a)
        else if k = k_lit then
          literal_at dst
            (Vtree.leaf_of_var dst.vt (Vtree.var_of_leaf src.vt st.vnode.(a)))
            st.aux.(a)
        else begin
          (* Each prime, then its sub, imported in element order. *)
          let n = st.aux.(a) in
          let lo = stk.sp in
          push_elements stk st a;
          for i = lo to lo + (2 * n) - 1 do
            let x = go stk.buf.(i) in
            stk.buf.(i) <- x
          done;
          reverse_pairs stk.buf lo n;
          mk_decision_k dst stk (map st.vnode.(a)) lo
        end
      in
      Int_tbl.add memo a b;
      b
  in
  go root

type view =
  | False
  | True
  | Literal of string * bool
  | Decision of Vtree.node * (t * t) list

let view m a =
  let st = Atomic.get m.store in
  let k = Bytes.unsafe_get st.kind a in
  if k = k_const then (if st.aux.(a) = 1 then True else False)
  else if k = k_lit then
    Literal (Vtree.var_of_leaf m.vt st.vnode.(a), st.aux.(a) = 1)
  else Decision (st.vnode.(a), elements_list st a)

(* Iterative (dynamic edits and E20-scale chains make recursion-depth
   assumptions unsafe); returns each reachable decision with its vtree
   node and element list. *)
let reachable_decisions m a =
  let st = Atomic.get m.store in
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let stack = ref [ a ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | x :: rest ->
      stack := rest;
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        if Bytes.unsafe_get st.kind x = k_dec then begin
          let pairs = elements_list st x in
          acc := (x, st.vnode.(x), pairs) :: !acc;
          List.iter
            (fun (p, s) -> stack := p :: s :: !stack)
            pairs
        end
      end
  done;
  !acc

let size m a =
  List.fold_left
    (fun acc (_, _, elems) -> acc + List.length elems)
    0 (reachable_decisions m a)

let node_count m a = List.length (reachable_decisions m a)

let width_profile m a =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (_, v, elems) ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (cur + List.length elems))
    (reachable_decisions m a);
  List.sort compare (Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl [])

let width m a =
  List.fold_left (fun acc (_, c) -> Stdlib.max acc c) 0 (width_profile m a)

let validate m a =
  let check_one (_, v, elems) =
    if Vtree.is_leaf m.vt v then Error "decision normalized to a leaf"
    else begin
      let lv = Vtree.left m.vt v and rv = Vtree.right m.vt v in
      let inside side x =
        match vtree_node m x with
        | None -> true
        | Some u -> Vtree.is_ancestor m.vt side u
      in
      let structured =
        List.for_all (fun (p, s) -> inside lv p && inside rv s) elems
      in
      if not structured then Error "element not structured by the vtree node"
      else begin
        let primes = List.map fst elems in
        let subs = List.map snd elems in
        if List.length (List.sort_uniq compare subs) <> List.length subs then
          Error "not compressed: duplicate subs"
        else if List.exists (fun p -> p = 0) primes then
          Error "false prime"
        else if disjoin_list m primes <> 1 then Error "primes not exhaustive"
        else begin
          let rec pairwise = function
            | [] -> Ok ()
            | p :: rest ->
              if List.exists (fun q -> conjoin m p q <> 0) rest then
                Error "primes not pairwise disjoint"
              else pairwise rest
          in
          pairwise primes
        end
      end
    end
  in
  List.fold_left
    (fun acc d -> Result.bind acc (fun () -> check_one d))
    (Ok ()) (reachable_decisions m a)
(* ------------------------------------------------------------------ *)
(* Counting                                                            *)
(* ------------------------------------------------------------------ *)

(* One bottom-up pass behind every counting query, generic in the number
   type.  [lit leaf pos] weighs a literal and [pow k] is the weight of k
   variables a node does not mention: the two literal weights of every
   variable sum to [pow 1], so vtree gaps are filled with (cached) powers
   and no division is needed — one multiply-add per element.  Returns
   the count of [a] over the variables below its own vtree node, and
   their number (0 for the constants). *)
let weighted_count m a ~zero ~add ~mul ~pow lit =
  let st = Atomic.get m.store in
  let below v = Vtree.num_vars_below m.vt v in
  let pows = Hashtbl.create 16 and cache = Hashtbl.create 64 in
  let pow k =
    match Hashtbl.find_opt pows k with
    | Some r -> r
    | None -> let r = pow k in Hashtbl.add pows k r; r
  in
  let rec own a =
    match Hashtbl.find_opt cache a with
    | Some r -> r
    | None ->
      let v = st.vnode.(a) in
      let r =
        if Bytes.unsafe_get st.kind a = k_lit then lit v (st.aux.(a) = 1)
        else
          let lv = Vtree.left m.vt v and rv = Vtree.right m.vt v in
          List.fold_left
            (fun acc (p, s) -> add acc (mul (at p lv) (at s rv)))
            zero (elements_list st a)
      in
      Hashtbl.add cache a r;
      r
  and at a v =
    (* [a] over the variables below v; requires vtree(a) ≤ v *)
    if a = 0 then zero
    else if a = 1 then pow (below v)
    else begin
      let gap = below v - below st.vnode.(a) in
      if gap = 0 then own a else mul (pow gap) (own a)
    end
  in
  if a = 0 then (zero, 0)
  else if a = 1 then (pow 0, 0)
  else (own a, below st.vnode.(a))

let model_count m a =
  let c, d =
    weighted_count m a ~zero:Bigint.zero ~add:Bigint.add ~mul:Bigint.mul
      ~pow:Bigint.pow2 (fun _ _ -> Bigint.one)
  in
  Bigint.shift_left c (Vtree.num_leaves m.vt - d)

(* Probabilities: the two polarities sum to 1, so gaps weigh 1. *)
let probability m a weight =
  fst
    (weighted_count m a ~zero:0.0 ~add:( +. ) ~mul:( *. ) ~pow:(fun _ -> 1.0)
       (fun leaf pos ->
         let w = weight (Vtree.var_of_leaf m.vt leaf) in
         if pos then w else 1.0 -. w))

(* Exact: [weight] is asked once per variable [a] mentions, and literal
   weights are scaled to integers over the lcm [l] of their
   denominators, so the result is one fraction N / l^d, normalised
   once. *)
let probability_ratio m a weight =
  let st = Atomic.get m.store in
  let ws = Hashtbl.create 16 in
  let note x =
    let v = st.vnode.(x) in
    if Bytes.unsafe_get st.kind x = k_lit && not (Hashtbl.mem ws v) then
      Hashtbl.add ws v (weight (Vtree.var_of_leaf m.vt v))
  in
  note a;
  List.iter
    (fun (_, _, elems) -> List.iter (fun (p, s) -> note p; note s) elems)
    (reachable_decisions m a);
  let lcm d l = Bigint.mul l (Bigint.divexact d (Bigint.gcd l d)) in
  let l = Hashtbl.fold (fun _ w -> lcm (Ratio.den w)) ws Bigint.one in
  let c, d =
    weighted_count m a ~zero:Bigint.zero ~add:Bigint.add ~mul:Bigint.mul
      ~pow:(Bigint.pow l) (fun leaf pos ->
        let w = Hashtbl.find ws leaf in
        let p = Bigint.mul (Ratio.num w) (Bigint.divexact l (Ratio.den w)) in
        if pos then p else Bigint.sub l p)
  in
  Ratio.make c (Bigint.pow l d)

let any_model m a =
  if a = 0 then None
  else begin
    let st = Atomic.get m.store in
    let bindings = ref [] in
    let rec go a =
      let k = Bytes.unsafe_get st.kind a in
      if k = k_const then assert (st.aux.(a) = 1)
      else if k = k_lit then
        bindings :=
          (Vtree.var_of_leaf m.vt st.vnode.(a), st.aux.(a) = 1) :: !bindings
      else begin
        (* Canonicity: a node other than ⊥ is satisfiable, so some element
           has a satisfiable (non-⊥) sub; its prime is non-⊥ by
           construction. *)
        let p, s =
          match List.find_opt (fun (_, s) -> s <> 0) (elements_list st a) with
          | Some e -> e
          | None -> assert false
        in
        go p;
        go s
      end
    in
    go a;
    let partial = !bindings in
    let all = Vtree.variables m.vt in
    Some
      (List.map
         (fun v ->
           match List.assoc_opt v partial with
           | Some b -> (v, b)
           | None -> (v, false))
         all)
  end

(* ------------------------------------------------------------------ *)
(* Compilation and export                                              *)
(* ------------------------------------------------------------------ *)

let compile_circuit m c =
  Obs.span "sdd.compile_circuit" @@ fun () ->
  (* Up-front check so a pre-cancelled or already-expired budget trips
     deterministically even on circuits too small to hit a poll. *)
  Budget.check m.budget;
  with_scratch @@ fun stk ->
  let n = Circuit.size c in
  let res = Array.make n 0 in
  for i = 0 to n - 1 do
    res.(i) <-
      (match Circuit.gate c i with
      | Circuit.Var v -> literal m v true
      | Circuit.Const b -> if b then 1 else 0
      | Circuit.Not j -> negate_k m stk res.(j)
      | Circuit.And js ->
        List.fold_left (fun acc j -> apply_k m stk true acc res.(j)) 1 js
      | Circuit.Or js ->
        List.fold_left (fun acc j -> apply_k m stk false acc res.(j)) 0 js);
    (* Per-gate compaction checkpoint (opt-in via [compact_every]): the
       live roots are exactly the gate results computed so far. *)
    if compact_due m then begin
      let roots = compact_roots m (Array.sub res 0 (i + 1)) in
      Array.blit roots 0 res 0 (i + 1)
    end
  done;
  if !Obs.enabled_ref then probe_occupancy m;
  res.(Circuit.output c)

(* ------------------------------------------------------------------ *)
(* OBDD specialization                                                 *)
(* ------------------------------------------------------------------ *)

(* An OBDD is exactly a canonical SDD over a right-linear vtree
   (Section 2.2 of the paper), so the arena store, budget gate, sharded
   unique table and compaction machinery are reused as-is; what this
   module replaces is the generic apply.  On a right-linear vtree every
   decision has exactly two elements whose primes are the two literals
   of one variable, so apply reduces to the classic Shannon/ITE
   recursion — cofactor both operands on the topmost variable, recurse
   twice, rebuild — with no [elements_at] views, no prime cross
   products and no prime conjoins.  The nodes built are bit-identical
   to what the generic apply would intern (same element order, same
   unique keys), so the generic queries (model_count, size,
   width_profile, validate, import, compaction) and the shared apply
   caches remain sound on them. *)
module Obdd = struct
  let manager ?budget ?compact_every order =
    create_manager ~canonical:true ?budget ?compact_every
      (Vtree.right_linear order)

  let order m = Vtree.leaf_order m.vt

  let check m name =
    if not (m.canonical && Vtree.is_right_linear m.vt) then
      invalid_arg
        (name ^ ": needs a canonical manager over a right-linear vtree")

  (* Pre-order ids of a right-linear vtree: the spine internals are the
     even ids 0, 2, ..., the leaf deciding level k is 2k+1, and the
     last variable keeps the final even id — so levels are pure id
     arithmetic, no per-manager tables. *)
  let[@inline] level_of st a =
    let u = st.vnode.(a) in
    if Bytes.unsafe_get st.kind a = k_dec then u / 2
    else if u land 1 = 1 then (u - 1) / 2
    else u / 2

  (* (hi, lo) cofactors of [a] on the variable of [lvl]; [la] is [a]'s
     own level ([> lvl] means [a] does not mention the variable). *)
  let cofactors st a la lvl =
    if la > lvl then (a, a)
    else if Bytes.unsafe_get st.kind a = k_lit then
      if st.aux.(a) = 1 then (1, 0) else (0, 1)
    else begin
      (* Canonical right-linear: exactly 2 elements. *)
      assert (st.aux.(a) = 2);
      let o = st.off.(a) in
      let c = chunk_of st o and i = pos_of o in
      if st.aux.(c.(i)) = 1 then (c.(i + 1), c.(i + 3)) else (c.(i + 3), c.(i + 1))
    end

  (* Canonical node for ITE(x_lvl, hi, lo): trims mirror [mk_decision]
     ([hi = lo] merge, literal shortcuts), and the interned element
     list / unique key match its layout exactly. *)
  let mk_node m stk lvl hi lo =
    if hi = lo then hi
    else begin
      let leaf = (2 * lvl) + 1 in
      if hi = 1 && lo = 0 then literal_at m leaf 1
      else if hi = 0 && lo = 1 then literal_at m leaf 0
      else begin
        let pos = literal_at m leaf 1 and neg = literal_at m leaf 0 in
        let base = stk.sp in
        if pos < neg then begin
          push2 stk pos hi;
          push2 stk neg lo
        end
        else begin
          push2 stk neg lo;
          push2 stk pos hi
        end;
        let id = unique_intern m (2 * lvl) stk.buf base 2 in
        stk.sp <- base;
        id
      end
    end

  let rec apply_rec m stk op_and a b =
    let neutral = if op_and then 1 else 0 in
    let absorbing = if op_and then 0 else 1 in
    if a = absorbing || b = absorbing then absorbing
    else if a = neutral then b
    else if b = neutral then a
    else if a = b then a
    else if
      (Atomic.get m.store).vnode.(a) = (Atomic.get m.store).vnode.(b)
      && cache_find m m.neg_cache a = b
    then absorbing
    else begin
      let cache = if op_and then m.and_cache else m.or_cache in
      let cstat = if op_and then m.cs_and else m.cs_or in
      let key = pair_key (Stdlib.min a b) (Stdlib.max a b) in
      let cached = cache_find m cache key in
      if cached >= 0 then begin
        cache_hit cstat;
        cached
      end
      else begin
        cache_miss cstat;
        if !Obs.enabled_ref then Attribution.charge_apply_miss ();
        let st = Atomic.get m.store in
        let la = level_of st a and lb = level_of st b in
        let lvl = Stdlib.min la lb in
        let ah, al = cofactors st a la lvl in
        let bh, bl = cofactors st b lb lvl in
        let hi = apply_rec m stk op_and ah bh in
        let lo = apply_rec m stk op_and al bl in
        let r = mk_node m stk lvl hi lo in
        cache_put m cache key r;
        r
      end
    end

  let conjoin m a b =
    check m "Sdd.Obdd.conjoin";
    with_scratch (fun stk -> apply_rec m stk true a b)

  let disjoin m a b =
    check m "Sdd.Obdd.disjoin";
    with_scratch (fun stk -> apply_rec m stk false a b)

  let conjoin_list m l =
    check m "Sdd.Obdd.conjoin_list";
    with_scratch (fun stk -> List.fold_left (apply_rec m stk true) 1 l)

  let disjoin_list m l =
    check m "Sdd.Obdd.disjoin_list";
    with_scratch (fun stk -> List.fold_left (apply_rec m stk false) 0 l)

  let compile_circuit m c =
    check m "Sdd.Obdd.compile_circuit";
    Obs.span "sdd.obdd_compile" @@ fun () ->
    Budget.check m.budget;
    with_scratch @@ fun stk ->
    let n = Circuit.size c in
    let res = Array.make n 0 in
    for i = 0 to n - 1 do
      res.(i) <-
        (match Circuit.gate c i with
        | Circuit.Var v -> literal m v true
        | Circuit.Const b -> if b then 1 else 0
        | Circuit.Not j -> negate_k m stk res.(j)
        | Circuit.And js ->
          List.fold_left (fun acc j -> apply_rec m stk true acc res.(j)) 1 js
        | Circuit.Or js ->
          List.fold_left (fun acc j -> apply_rec m stk false acc res.(j)) 0 js);
      (* Same per-gate compaction checkpoint as the generic compile. *)
      if compact_due m then begin
        let roots = compact_roots m (Array.sub res 0 (i + 1)) in
        Array.blit roots 0 res 0 (i + 1)
      end
    done;
    if !Obs.enabled_ref then probe_occupancy m;
    res.(Circuit.output c)

  (* OBDD node census per level: the root plus the hi/lo closure, one
     node per decision (a literal in node position is the one-decision
     OBDD of that variable, so it counts too — matching the [Bdd]
     module's convention).  Primes are encoding, not nodes. *)
  let level_profile m a =
    check m "Sdd.Obdd.level_profile";
    let st = Atomic.get m.store in
    let vars = Array.of_list (Vtree.leaf_order m.vt) in
    let counts = Array.make (Array.length vars) 0 in
    let seen = Hashtbl.create 64 in
    let stack = ref [ a ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | x :: rest ->
        stack := rest;
        if
          (not (Hashtbl.mem seen x))
          && Bytes.unsafe_get st.kind x <> k_const
        then begin
          Hashtbl.add seen x ();
          let lvl = level_of st x in
          counts.(lvl) <- counts.(lvl) + 1;
          if Bytes.unsafe_get st.kind x = k_dec then begin
            let hi, lo = cofactors st x lvl lvl in
            stack := hi :: lo :: !stack
          end
        end
    done;
    Array.to_list (Array.mapi (fun i c -> (vars.(i), c)) counts)

  let width m a =
    List.fold_left (fun acc (_, c) -> Stdlib.max acc c) 0 (level_profile m a)
end

let of_boolfun_naive m f =
  let terms =
    List.map
      (fun asg ->
        conjoin_list m
          (List.map (fun (v, b) -> literal m v b) (Boolfun.Smap.bindings asg)))
      (Boolfun.models f)
  in
  disjoin_list m terms

let eval m a asg =
  (* Memoized per call so that shared subnodes are evaluated once: total
     work is linear in the number of reachable elements. *)
  let st = Atomic.get m.store in
  let memo = Hashtbl.create 64 in
  let rec go a =
    match Hashtbl.find_opt memo a with
    | Some r -> r
    | None ->
      let r =
        let k = Bytes.unsafe_get st.kind a in
        if k = k_const then st.aux.(a) = 1
        else if k = k_lit then
          Boolfun.Smap.find (Vtree.var_of_leaf m.vt st.vnode.(a)) asg
          = (st.aux.(a) = 1)
        else begin
          let rec find = function
            | [] -> assert false (* exhaustive *)
            | (p, s) :: rest -> if go p then go s else find rest
          in
          find (elements_list st a)
        end
      in
      Hashtbl.add memo a r;
      r
  in
  go a

let to_boolfun m a =
  let st = Atomic.get m.store in
  let vars = Vtree.variables m.vt in
  (* Bit position of each leaf's variable in the sorted variable order:
     literals evaluate with two shifts instead of a map lookup, and the
     tabulation loop allocates no assignments. *)
  let pos_of_leaf = Array.make (Vtree.num_nodes m.vt) (-1) in
  List.iteri (fun j v -> pos_of_leaf.(Vtree.leaf_of_var m.vt v) <- j) vars;
  let memo = Int_tbl.create 64 in
  Boolfun.of_fun_index vars (fun i ->
      Int_tbl.reset memo;
      let rec go a =
        let k = Bytes.unsafe_get st.kind a in
        if k = k_const then st.aux.(a) = 1
        else if k = k_lit then
          (i lsr pos_of_leaf.(st.vnode.(a))) land 1 = st.aux.(a)
        else begin
          match Int_tbl.find memo a with
          | r -> r
          | exception Not_found ->
            let rec find = function
              | [] -> assert false (* exhaustive *)
              | (p, s) :: rest -> if go p then go s else find rest
            in
            let r = find (elements_list st a) in
            Int_tbl.add memo a r;
            r
        end
      in
      go a)

let to_nnf_circuit m a =
  let st = Atomic.get m.store in
  let b = Circuit.Builder.create () in
  let memo = Hashtbl.create 64 in
  let rec go a =
    match Hashtbl.find_opt memo a with
    | Some r -> r
    | None ->
      let r =
        let k = Bytes.unsafe_get st.kind a in
        if k = k_const then Circuit.Builder.const b (st.aux.(a) = 1)
        else if k = k_lit then begin
          let v = Vtree.var_of_leaf m.vt st.vnode.(a) in
          if st.aux.(a) = 1 then Circuit.Builder.var b v
          else Circuit.Builder.not_ b (Circuit.Builder.var b v)
        end
        else
          Circuit.Builder.or_ b
            (List.map
               (fun (p, s) -> Circuit.Builder.and_ b [ go p; go s ])
               (elements_list st a))
      in
      Hashtbl.add memo a r;
      r
  in
  Circuit.Builder.build b (go a)

let pp m ppf a =
  let rec go ppf a =
    let st = Atomic.get m.store in
    let k = Bytes.unsafe_get st.kind a in
    if k = k_const then
      Format.pp_print_string ppf (if st.aux.(a) = 1 then "T" else "F")
    else if k = k_lit then begin
      let v = Vtree.var_of_leaf m.vt st.vnode.(a) in
      if st.aux.(a) = 1 then Format.pp_print_string ppf v
      else Format.fprintf ppf "~%s" v
    end
    else begin
      Format.fprintf ppf "@[<hov 1>[@%d" st.vnode.(a);
      List.iter
        (fun (p, s) -> Format.fprintf ppf " (%a,%a)" go p go s)
        (elements_list st a);
      Format.fprintf ppf "]@]"
    end
  in
  go ppf a

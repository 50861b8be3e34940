(** Vertex elimination: the fill-in game behind the greedy treewidth
    heuristics and elimination-order tree decompositions.

    Eliminating a vertex turns its remaining neighbourhood into a clique
    and removes it.  One run plays the whole game once, either choosing
    each next vertex greedily or following a fixed order, and records
    what a decomposition needs: the order, each vertex's remaining
    neighbourhood at its elimination, and the largest such
    neighbourhood. *)

type rule =
  | Min_fill
      (** Next vertex: fewest fill edges (non-adjacent neighbour pairs),
          lowest index among ties. *)
  | Min_degree
      (** Next vertex: fewest remaining neighbours, lowest index among
          ties. *)
  | Fixed of int array
      (** Eliminate in this order, which must be a permutation of the
          vertices (not checked). *)

type t = {
  order : int array;  (** [order.(i)] is the [i]-th eliminated vertex. *)
  later : int array array;
      (** [later.(i)]: the neighbours of [order.(i)] not yet eliminated
          when it is, in no particular order. *)
  width : int;  (** Largest [later.(i)] size; [-1] on the empty graph. *)
}

val run : ?budget:Budget.t -> rule -> Ugraph.t -> t
(** Plays the elimination game on a copy of the graph, in time about
    linear in the adjacency and fill work rather than quadratic in the
    vertex count.  The greedy rules keep every live vertex in a heap
    keyed by (score, index).  After an elimination, [Min_degree]
    re-keys the eliminated vertex's neighbours; [Min_fill] updates its
    fill counts by exact deltas (for the neighbours, which lose the
    eliminated vertex and gain fill edges, and for the common
    neighbours of each fill edge) and re-keys the vertices whose count
    moved, all within the 2-neighbourhood.  [budget] (default
    {!Budget.unlimited}) is polled once per score evaluation: each
    initial min-fill score, each re-key and each fill edge min-fill
    adds.  [Fixed] does not poll.
    @raise Budget.Exhausted on a trip. *)

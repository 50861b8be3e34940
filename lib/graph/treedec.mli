(** Tree decompositions.

    A tree decomposition of a graph [g] is a tree whose nodes carry bags of
    vertices of [g] such that every vertex appears in a bag, every edge is
    contained in some bag, and the bags containing any fixed vertex induce
    a connected subtree.  Width = max bag size - 1. *)

type t = {
  bags : int list array;  (** [bags.(i)] is the sorted bag of tree node [i]. *)
  tree : (int * int) list;  (** Edges of the tree over bag indices. *)
}

val width : t -> int
(** Max bag size minus one; [-1] for a decomposition with only empty bags. *)

val num_bags : t -> int

val validate : Ugraph.t -> t -> (unit, string) result
(** Checks that [tree] is a tree (connected, acyclic) over the bag
    indices, then the three tree-decomposition properties, in time
    near-linear in the bags, edges and tree.  The error names the first
    failure: the tree, then the lowest uncovered vertex, the first
    uncovered edge of {!Ugraph.edges}, the lowest vertex whose bags are
    disconnected.  Bag entries outside the graph are ignored. *)

val is_valid : Ugraph.t -> t -> bool

val trivial : Ugraph.t -> t
(** The one-bag decomposition containing all vertices. *)

val of_elimination : Elimination.t -> t
(** Tree decomposition of a played elimination: bag [i] is [order.(i)]
    followed by its remaining neighbours in ascending order, joined to
    the bag of the first of those neighbours eliminated (or to bag
    [i + 1] when there is none).  Width equals the elimination's. *)

val of_elimination_order : Ugraph.t -> int list -> t
(** Tree decomposition obtained by eliminating vertices in the given order
    (fill-in construction), i.e. {!of_elimination} of a
    {!Elimination.Fixed} run.  The order must be a permutation of the
    vertices.  Width equals the width of the elimination order. *)

val path_decomposition_of_order : Ugraph.t -> int list -> t
(** Path decomposition induced by a vertex layout: bag [i] contains
    vertex [order.(i)] and every earlier vertex with a later neighbor.
    Its width is the vertex-separation width of the layout. *)

val refine_connected : t -> t
(** Reconnects a forest of bags into a tree (joining components with
    edges between arbitrary bags); used to normalize constructions on
    disconnected graphs. *)

val pp : Format.formatter -> t -> unit

(** Treewidth and pathwidth computation.

    Heuristic upper bounds via greedy elimination orders, exact values via
    dynamic programming over vertex subsets (practical up to ~18 vertices),
    and combinatorial lower bounds.  Circuit treewidth (Section 3.1 of the
    paper) reduces to these via the circuit's underlying undirected graph. *)

(** {1 Elimination orders} *)

val min_degree_order : ?budget:Budget.t -> Ugraph.t -> int list
val min_fill_order : ?budget:Budget.t -> Ugraph.t -> int list

val width_of_order : Ugraph.t -> int list -> int
(** Width of the tree decomposition induced by the elimination order. *)

(** {1 Upper bounds} *)

val upper_bound : ?budget:Budget.t -> Ugraph.t -> int * int list
(** Best width over the min-fill and min-degree eliminations (min-fill
    on a tie), with a witnessing order.  Each heuristic is one
    {!Elimination.run}, which polls [budget] (default
    {!Budget.unlimited}) once per score evaluation: each initial
    min-fill score, each re-key after an elimination and each fill edge
    min-fill adds — on fill-heavy graphs the heuristics dominate a
    budgeted compilation otherwise.
    @raise Budget.Exhausted on a trip. *)

val decomposition : ?budget:Budget.t -> Ugraph.t -> Treedec.t
(** The tree decomposition of {!upper_bound}'s winning elimination,
    built from the same pass (no elimination is replayed), polling
    [budget] like {!upper_bound}. *)

(** {1 Exact computation} *)

val exact : ?max_vertices:int -> Ugraph.t -> int
(** Exact treewidth by subset dynamic programming.
    @raise Invalid_argument if the graph has more than [max_vertices]
    (default 18) vertices. *)

val exact_order : ?max_vertices:int -> Ugraph.t -> int * int list
(** Exact treewidth with an optimal elimination order. *)

val exact_decomposition : ?max_vertices:int -> Ugraph.t -> Treedec.t
(** Minimum-width tree decomposition. *)

val exact_bb : ?node_budget:int -> ?budget:Budget.t -> Ugraph.t -> int option
(** Branch-and-bound over elimination orders (with simplicial-vertex
    reduction and dominance memoization).  Exact when it answers within
    [node_budget] search nodes (default 200000); [None] when that budget
    — or the optional global [budget], polled every 1024 nodes — is
    exhausted.  Either trip is reported through the [budget.trip.*]
    counters.  Graphs up to 62 vertices. *)

(** {1 Lower bounds} *)

val lower_bound_mmd : Ugraph.t -> int
(** Maximum-minimum-degree (degeneracy) lower bound. *)

(** {1 Pathwidth} *)

val pathwidth_exact : ?max_vertices:int -> Ugraph.t -> int
(** Exact pathwidth via the vertex-separation-number DP (pathwidth equals
    vertex separation number).  Same size limits as {!exact}. *)

val pathwidth_order : ?max_vertices:int -> Ugraph.t -> int * int list
(** Exact pathwidth with a witnessing vertex layout. *)

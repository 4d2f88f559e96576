(** Compressed-sparse-row matrix, assembled from coordinate triplets or
    straight from element connectivity (FEM assembly). A fixed sparsity
    pattern can be reused across Newton iterations via [zero_values] +
    [add_at]. *)

type t

val nrows : t -> int
val nnz : t -> int

val of_triplets : int -> (int * int * float) list -> t
(** [of_triplets n triplets] builds an [n x n] matrix, summing
    duplicate coordinates; raises [Invalid_argument] on out-of-range
    entries. *)

val of_elements :
  int ->
  nelems:int ->
  arity:int ->
  elem_nodes:int array ->
  value:(int -> int -> int -> float) ->
  t
(** [of_elements n ~nelems ~arity ~elem_nodes ~value] assembles the
    [n x n] sum of element blocks: element [e] has nodes
    [elem_nodes.(e*arity + i)] for [i < arity] and adds [value e i j]
    at (node i, node j). The pattern comes from node-to-element
    incidence (each row's columns sorted, once each) with no triplet
    list. Every stored value has the same bits as [of_triplets] fed the
    same entries generated [e], then [i], then [j] ascending (consed
    onto a list, as an assembly loop would). [elem_nodes] must have
    length [nelems * arity]; raises [Invalid_argument] naming the entry
    on a node id outside 0..n-1. *)

val zero_values : t -> unit
(** Zero the stored values, keeping the sparsity pattern. *)

val add_at : t -> int -> int -> float -> unit
(** [add_at m r c v] adds [v] at (r, c); the position must exist in
    the pattern. *)

val get : t -> int -> int -> float
(** Entry at (r, c); 0 outside the pattern. *)

val spmv : t -> float array -> float array -> unit
(** [spmv m x y] computes y := A x. *)

val inv_diagonal : t -> float array
(** Reciprocal diagonal (Jacobi preconditioner); zeros map to 1. *)

val to_dense : t -> float array array

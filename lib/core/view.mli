(** A kernel's window onto one argument of a parallel loop.

    Backends re-point [data]/[base] per iteration element, so user
    kernels are written once against this interface and reused by
    every parallelization — the paper's separation of the science
    source from its parallel implementation. Component [i] of the
    current element is [v.data.(v.base + i)]; for an INC argument a
    backend may point [data] at a per-worker copy or a scratch buffer
    that it reduces after the loop.

    Hot kernels should index [v.data.(v.base + i)] directly rather
    than call {!get}/{!set}/{!inc}: dune's dev profile compiles with
    [-opaque], so those calls are never inlined, and each returns or
    takes a boxed float. The record fields and the array access compile
    inline (see the Mini-FEM-PIC kernels). The functions below serve
    tests, examples and cold code. *)

type t = {
  mutable data : float array;  (** backing storage (backends may redirect it) *)
  mutable base : int;  (** offset of the current element's first value *)
  dim : int;  (** values per element *)
}

val make : int -> t
(** [make dim] is an unbound view (backends bind it before use). *)

val of_array : ?base:int -> float array -> int -> t
(** [of_array data dim] views [data] starting at [base] (default 0). *)

val get : t -> int -> float
(** [get v i] reads component [i] of the current element. *)

val set : t -> int -> float -> unit
(** [set v i x] writes component [i]. Use only on WRITE/RW arguments. *)

val inc : t -> int -> float -> unit
(** [inc v i x] adds [x] to component [i]. The only legal update on an
    INC argument (directly: [data.(base + i) <- data.(base + i) +. x]):
    backends make accumulation race-free by pointing [data] at
    per-worker copies, not by intercepting the call. *)

val to_array : t -> float array
(** Copy of the [dim] values under the view. *)

val fill : t -> float -> unit
(** Set every component of the current element. *)

val blit_from : t -> float array -> unit
(** Write [dim] values from the array into the current element. *)

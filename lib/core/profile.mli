(** Per-kernel instrumentation ledger.

    Every loop execution records wall (or modelled) time, iteration
    count, and the estimated double-precision flops and bytes it moved;
    the roofline and runtime-breakdown reports of [Opp_perf] are
    generated from these records. *)

type entry = {
  mutable calls : int;
  mutable elems : int;
  mutable seconds : float;
  mutable flops : float;
  mutable bytes : float;
}

type t

val create : unit -> t

val global : t
(** The default ledger; backends record here unless given another. *)

val record :
  ?t:t -> name:string -> elems:int -> seconds:float -> flops:float -> bytes:float -> unit -> unit
(** Accumulate one execution of kernel [name]. *)

val timed : ?t:t -> name:string -> ?elems:int -> ?flops:float -> ?bytes:float -> (unit -> 'a) -> 'a
(** Run a thunk as a [host] scope of the timing spine
    ([Opp_obs.Trace.timed]) and record its duration into the ledger
    (host-side phases such as the field solver that are not expressed
    as loops). *)

val add_seconds : ?t:t -> name:string -> float -> unit
(** Add modelled (as opposed to measured) seconds to an entry. *)

val reset : ?t:t -> unit -> unit

val entries : ?t:t -> unit -> (string * entry) list
(** Entries in first-recorded order. *)

val merge : into:t -> t -> unit
(** Fold a ledger into [into], summing entries that share a kernel
    name (combining per-rank ledgers into one report). *)

val total_seconds : ?t:t -> unit -> float

val intensity : entry -> float option
(** Arithmetic intensity (flop/byte), when traffic was recorded. *)

val pp : Format.formatter -> ?t:t -> unit -> unit
(** Table of kernels with calls, elements, seconds, achieved GF/s and
    GB/s, and arithmetic intensity (flop/byte; [-] when no traffic was
    recorded). *)

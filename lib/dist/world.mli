(** Distributed world state derived from an app's declarations.

    An app describes each rank sim once — which dats are persistent
    fields, which are checkpoint-only scratch, which make up a
    particle row, and which extras are keyed by a global id — and
    places it in a layout (each mesh set's local→global ids and owned
    count). From that one description this module derives the
    particle migration codec, the checkpoint sections, the
    order-canonical state hash, and the live re-partition epoch used
    by rebalance and shrink recovery (docs/RESILIENCE.md). *)

open Opp_core

(** Per-slot app state keyed by a global id (e.g. one value per inlet
    face, keyed by the face's stable id): checkpointed as one section,
    and handed to whichever rank holds the key after a re-partition. *)
type extra =
  | Carry of string * int array * float array  (** section name, keys, values *)
  | Streams of string * int array * Rng.t array  (** section name, keys, RNG streams *)

(** What of a rank sim is state, in section order. *)
type state = {
  fields : (string * Types.dat) list;
      (** mesh dats carried across a re-partition and hashed *)
  scratch : (string * Types.dat) list;
      (** mesh dats only checkpointed: recomputed before their next use *)
  parts : (string * Types.dat) list;  (** particle dats; a row is their concatenation *)
  p2c : Types.map;  (** the particle-to-cell map *)
  meta : int list;  (** constants a restore must match (after the particle count) *)
  extras : extra list;
}

type mesh = { set : Types.set; gid : int array  (** local -> global *); owned : int }

(** A rank sim placed in a layout. [local_cell] maps a global cell id
    the rank holds to its local index. *)
type rank = { state : state; meshes : mesh list; local_cell : int -> int }

(** How an app rebuilds its world: partition and halo exchanges for a
    cell ownership, a fresh rank sim, and the placed view of a sim. *)
type ('layout, 'sim) app = {
  build : cell_rank:int array -> nranks:int -> 'layout;
  exchanges : 'layout -> Exch.t list;
  spawn : 'layout -> int -> 'sim;
  rank : 'layout -> int -> 'sim -> rank;
}

(** {2 Particle rows} *)

val payload_dim : state -> int
val payload : state -> int -> float array

val pack : rank -> Mailbox.t -> src:int -> owner:int array -> p:int -> cell:int -> unit
(** Post particle [p], pending in local cell [cell], to the owner of
    that cell ([owner] is indexed by global cell). *)

val unpack : rank -> (int * float array) list -> unit
(** Append a delivered batch of (global cell, row) migrants. *)

(** {2 Checkpoint sections} *)

val sections : state -> Opp_resil.Ckpt.section list
(** [meta] (particle count, then [state.meta]), the particle dats,
    [p2c], fields then scratch over owned and halo elements, then the
    extras. *)

val restore : state -> Opp_resil.Ckpt.section list -> unit
(** Inverse of {!sections}; marks every restored mesh dat's halo
    fresh. Raises [Ckpt.Corrupt] on a shape or [meta] mismatch. *)

val one_shard : step:int -> state -> Opp_resil.Ckpt.section list array
(** A sequential sim as a one-rank checkpoint: its sections plus the
    [driver] step counter. *)

val load_one : dir:string -> state -> int option
(** Restore the newest valid one-rank checkpoint under [dir]; returns
    its driver step, or [None] when there is none. *)

(** {2 Whole-world views} *)

val gather : rank array -> string -> float array
(** [gather ranks name]: the named field over every rank's owned
    elements, indexed by global id. *)

val scatter : rank array -> string -> float array -> unit
(** [scatter ranks name g]: copy global values [g] into every rank's
    owned and halo slots of the named field. *)

val cell_counts : rank array -> float array
(** Particles per global cell. *)

val state_hash : rank array -> int64
(** FNV-64 over the fields in global element order and the particles
    as a sorted multiset of (global cell, row): invariant under any
    re-partition that preserves the physics. *)

val transition :
  ('layout, 'sim) app ->
  traffic:Traffic.t ->
  old:'layout * 'sim array ->
  new_owner:int array ->
  dead:(int * Opp_resil.Ckpt.section list) option ->
  'layout * 'sim array
(** One live re-partition epoch. [new_owner] gives each global cell's
    new rank in the old numbering; with [dead = Some (d, sections)]
    rank [d] owns nothing, its state is [sections], and the survivors
    are renumbered without it. Fences the old exchanges, builds the
    new layout and adopts the wire state, regathers and scatters every
    field by global id (halos come back fresh), hands keyed extras to
    their new holders, re-localizes particles whose cell kept its
    owner, and sends the rest — and every particle of a dead rank —
    through the mailbox, whose delivery deadline reroutes a dead
    destination to the cell's new owner. *)

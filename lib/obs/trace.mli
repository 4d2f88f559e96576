(** Trace-span recorder and the timing spine.

    Every named scope (a loop launch, a rank phase, a halo exchange, a
    host section such as the field solve) is timed once, by
    {!with_span}. That one duration feeds the trace (one track per
    simulated MPI rank, exported as Chrome trace-event JSON for
    [chrome://tracing] or Perfetto, plus a text summary), the installed
    phase {!Ledger} (heartbeats), and [Opp_core.Profile] via {!timed}.

    A process-wide singleton, off by default. Ranks run serially in one
    process and multiplex their tracks with {!with_track}; spans are
    emitted from the orchestrating thread only. *)

val enabled : bool ref
(** Whether spans are recorded. Flip with {!enable} / {!disable}. *)

val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded spans and re-zero the trace epoch. *)

(** {2 Tracks} *)

val with_track : int -> (unit -> 'a) -> 'a
(** Run a thunk with spans routed to track (tid) [r]. A top-level span
    on [r] takes the span open on the track switched from as its
    parent, so rank phases nest under the driver's [step] in
    {!summary}. *)

val name_track : int -> string -> unit
(** Label a track in the exported trace (defaults to ["rank <r>"]). *)

(** {2 The phase ledger}

    Per-phase time without a trace (heartbeats): while a ledger is
    installed ({!with_ledger}, scoped like {!with_track}), every scope
    of an accepted category adds its duration under (track, category,
    name). *)

module Ledger : sig
  type t

  val create : cats:string list -> t
  (** Takes scopes of categories [cats] only (e.g. [["phase"]]). *)

  val phases : t -> track:int -> (string * float) list
  (** [(name, µs)] recorded on [track], in first-use order. *)

  val clear : t -> unit
  (** Zero every total; names and order stay. *)
end

val with_ledger : Ledger.t -> (unit -> 'a) -> 'a
(** Run a thunk with [l] installed. *)

(** {2 Spans} *)

val with_span :
  ?cat:string ->
  ?args:(string * float) list ->
  ?close:('a -> (string * float) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** Time a thunk as one named scope: one clock read at open, one at
    close. Recorded as a span when tracing is on, added to the
    installed ledger when it takes [cat]; with neither, one branch plus
    the thunk. [cat] is the Chrome category (["par_loop"], ["halo"],
    ...); [args], and [close] of the result, are the event's numeric
    [args]. Exception-safe: spans the thunk leaked open close too,
    stamped ["unwound"]. *)

val timed : ?cat:string -> string -> (unit -> 'a) -> on_close:(int64 -> unit) -> 'a
(** {!with_span}, always timed: [on_close] gets the duration in ns,
    also when the thunk raises (for [Opp_core.Profile]). *)

val begin_span : ?cat:string -> ?args:(string * float) list -> string -> unit
(** Open a trace-only span (no ledger, no close of its own): the
    enclosing {!with_span} closes it, stamped ["unwound"]. For tests of
    that recovery; instrument with {!with_span}. *)

val depth : unit -> int
(** Number of open spans on the current track (0 when disabled). *)

(** {2 Introspection (tests, summaries)} *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_track : int;
  sp_depth : int;  (** nesting depth at open, 0 = top level *)
  sp_path : string;  (** [;]-joined ancestor names, ending in [sp_name] *)
  sp_ts_ns : int64;  (** start, relative to the trace epoch *)
  mutable sp_dur_ns : int64;
  mutable sp_args : (string * float) list;
      (** numeric payload; exported as the Chrome [args] object *)
}

val spans : unit -> span list
(** Completed spans in completion order. *)

val span_count : unit -> int

(** {2 Export} *)

val to_chrome_json : unit -> Json.t
(** Chrome trace-event format: an object with a [traceEvents] array of
    complete ([ph = "X"]) events plus per-track [thread_name] metadata. *)

val write_chrome : string -> unit
(** Write {!to_chrome_json} to a file. *)

type row = {
  r_path : string;  (** [;]-joined call path *)
  r_calls : int;
  r_total_ns : int64;
  r_self_ns : int64;  (** total minus the time of direct children *)
}

val rows : unit -> row list
(** Completed spans aggregated by call path, sorted by path. *)

val summary : Format.formatter -> unit -> unit
(** Flamegraph-style text table: spans aggregated by call path with
    call counts, total and self time. *)

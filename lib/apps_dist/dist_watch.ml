(** Heartbeat assembly shared by every driver: the SPMD drivers
    ({!Fempic_dist}, {!Cabana_dist}) and the single-rank backends
    (seq / omp / GPU-sim, as one rank). One heartbeat per rank at each
    monitored step boundary carries population, fill, stale-halo
    fraction, the canary count over the rank's field dats, the run-wide
    traffic/retransmit/allocation deltas (on rank 0, so sums across
    ranks stay right) and per-phase microseconds.

    Phase times are not measured here: the step runs under {!run},
    which installs this monitor's [Opp_obs.Trace.Ledger], and the
    ledger sums the spine's scopes per track (= rank) — [phase] spans
    ({!on_rank}) on the distributed drivers, kernel launches and host
    sections on one rank ({!one_rank}). Without a monitor a driver
    pays one match per step; between decimated heartbeats times and
    traffic keep accumulating. *)

open Opp_core

type t = {
  mon : Opp_watch.Monitor.t;
  nranks : int;
  ledger : Opp_obs.Trace.Ledger.t;
  mutable last_mono : float;
  mutable last_bytes : float;
  mutable last_retries : int;
  mutable last_minor : float;
  mutable last_totals : float array;
      (** per-rank phase µs of the last heartbeat interval: the
          [--balance=phases] load signal *)
}

let create ?(cats = [ "phase" ]) ~nranks mon =
  {
    mon;
    nranks;
    ledger = Opp_obs.Trace.Ledger.create ~cats;
    last_mono = Opp_obs.Clock.now_s ();
    last_bytes = 0.0;
    last_retries = 0;
    last_minor = Gc.minor_words ();
    last_totals = Array.make nranks 0.0;
  }

(** A single-rank run's watch: its heartbeat reports every kernel
    launch and host section (the field solve). *)
let one_rank mon = create ~cats:[ "par_loop"; "particle_move"; "host" ] ~nranks:1 mon

let monitor w = w.mon

(** Run one step with this monitor's ledger installed. *)
let run wo f = match wo with None -> f () | Some w -> Opp_obs.Trace.with_ledger w.ledger f

(** Rank [r]'s share of phase [name]: the planner's rank, the rank's
    trace track and one [phase] span — the scope the heartbeat's
    per-rank phase times come from. *)
let on_rank plan r name f =
  Opp_plan.Exec.with_rank plan r (fun () ->
      Opp_obs.Trace.with_track r (fun () -> Opp_obs.Trace.with_span ~cat:"phase" name f))

(** Per-rank phase wall time (µs) over the last heartbeat interval;
    survives the heartbeat's ledger drain. *)
let rank_load_us w = w.last_totals

(** Fraction of [dats] whose halo copies are stale at this boundary. *)
let stale_halo_frac dats =
  match dats with
  | [] -> 0.0
  | _ ->
      let dirty =
        List.fold_left (fun acc d -> if d.Types.d_halo_dirty then acc + 1 else acc) 0 dats
      in
      float_of_int dirty /. float_of_int (List.length dats)

(** One monitored step boundary: assemble every rank's heartbeat and
    run the detector bank. The per-rank closures index ranks;
    [traffic] supplies the run-wide byte counter of a distributed run. *)
let step_done wo ~step ~particles ~capacity ~nonfinite ?(dirty = fun _ -> 0.0)
    ?(traffic : Opp_dist.Traffic.t option) () =
  match wo with
  | None -> ()
  | Some w ->
      if Opp_watch.Monitor.due w.mon ~step then begin
        let now = Opp_obs.Clock.now_s () in
        let step_us = (now -. w.last_mono) *. 1e6 in
        w.last_mono <- now;
        let bytes = Option.fold ~none:0.0 ~some:Opp_dist.Traffic.total_bytes traffic in
        let dbytes = bytes -. w.last_bytes in
        w.last_bytes <- bytes;
        let fault_stats =
          match Opp_resil.Fault.active () with
          | Some inj -> Opp_resil.Fault.stats inj
          | None -> []
        in
        let retries = Option.value ~default:0 (List.assoc_opt "retries" fault_stats) in
        let dretries = retries - w.last_retries in
        w.last_retries <- retries;
        (* the stepping domain's words, exact at any point ([Gc.quick_stat]
           only moves at minor collections); thread-backend workers
           allocate on their own domains and are not counted *)
        let minor = Gc.minor_words () in
        let dminor = minor -. w.last_minor in
        w.last_minor <- minor;
        w.last_totals <-
          Array.init w.nranks (fun r ->
              let cap = capacity r and n = particles r in
              let phase_us = Opp_obs.Trace.Ledger.phases w.ledger ~track:r in
              Opp_watch.Monitor.beat w.mon
                (Opp_watch.Heartbeat.make ~rank:r ~step ~step_us ~particles:n
                   ~fill:(if cap > 0 then float_of_int n /. float_of_int cap else 0.0)
                   ~dirty_frac:(dirty r)
                   ~comm_bytes:(if r = 0 then dbytes else 0.0)
                   ~retransmits:(if r = 0 then float_of_int dretries else 0.0)
                   ~minor_words:(if r = 0 then dminor else 0.0)
                   ~nonfinite:(nonfinite r) ~phase_us ());
              List.fold_left (fun acc (_, us) -> acc +. us) 0.0 phase_us);
        Opp_obs.Trace.Ledger.clear w.ledger;
        Opp_watch.Monitor.step_done ~fault_stats w.mon ~step
      end

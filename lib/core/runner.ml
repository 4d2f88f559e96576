(** Backend dispatch.

    An application declares its solver once against this interface; a
    runner binds the loops to a parallelization (sequential reference,
    Domains threads, simulated SIMT device, simulated MPI rank), which
    is the paper's separation of science source from parallel
    implementation. *)

type t = {
  r_name : string;
  r_par_loop :
    string (* kernel name *) ->
    float (* flops per element *) ->
    Seq.kernel ->
    Types.set ->
    Seq.iterate ->
    Arg.t list ->
    unit;
  r_particle_move :
    string ->
    float ->
    (int -> int) option (* direct-hop locator *) ->
    Seq.move_kernel ->
    Types.set ->
    Types.map (* p2c *) ->
    Arg.t list ->
    Seq.move_result;
}

(* Observability wiring lives at this dispatch point so every backend
   (sequential, Domains, simulated SIMT, the simulated-MPI rank loops)
   gets spans and move metrics without per-backend code. When tracing
   is off and no ledger is installed the cost is one branch per loop
   launch. *)

(* --- step boundaries (opp_watch) ---

   A PIC run is a sequence of steps, but the runner only sees loop
   launches. The step structure is announced from outside: every sim
   step function (and the distributed drivers) calls {!step_end} when
   a step completes, and subscribers — the live health monitor first
   of all — hook in with {!on_step_end}. When the per-launch phase
   ledger is on, each par_loop / particle_move also accumulates its
   wall time under its kernel name, so a heartbeat can carry per-phase
   microseconds without tracing enabled. *)

let step_hooks : (step:int -> unit) list ref = ref []
let on_step_end f = step_hooks := f :: !step_hooks
let clear_step_hooks () = step_hooks := []
let step_end ~step = List.iter (fun f -> f ~step) !step_hooks

(* --- launch observers (opp_plan recording mode) ---

   The whole-step planner reconstructs the step program by watching
   loop launches at this dispatch point: every par_loop (any backend)
   and every traced particle-move announces itself to the registered
   observers. Observation is passive — kernels, data and results are
   untouched — and free when no observer is registered (one list probe
   per launch). *)

type launch = {
  lc_name : string;
  lc_set : Types.set;
  lc_iterate : Seq.iterate;
  lc_args : Arg.t list;
}

let launch_hooks : (launch -> unit) list ref = ref []
let on_launch f = launch_hooks := f :: !launch_hooks

let move_hooks : (name:string -> args:Arg.t list -> unit) list ref = ref []
let on_move_launch f = move_hooks := f :: !move_hooks

let clear_launch_hooks () =
  launch_hooks := [];
  move_hooks := []

let notify_launch ~name set iterate args =
  match !launch_hooks with
  | [] -> ()
  | hooks ->
      let lc = { lc_name = name; lc_set = set; lc_iterate = iterate; lc_args = args } in
      List.iter (fun f -> f lc) hooks

let notify_move ~name ~args =
  match !move_hooks with [] -> () | hooks -> List.iter (fun f -> f ~name ~args) hooks

(* Every launch is one [Opp_obs.Trace] scope, the only timer of the
   dispatch point (the backends' own Profile records aside: the GPU
   model's is modelled time). When tracing is on, the span carries the
   loop's cost-model inputs so downstream analysis (oppic_prof) can
   place every kernel on the roofline from the trace artifact alone. *)
let cost_args ~flops_per_elem args n =
  [
    ("elems", float_of_int n);
    ("flops", flops_per_elem *. float_of_int n);
    ("bytes", Seq.loop_bytes args n);
  ]

let par_loop r ~name ?(flops_per_elem = 0.0) kernel set iterate args =
  notify_launch ~name set iterate args;
  (* counted before the launch: an injected-window loop may shrink it *)
  let span_args =
    if !Opp_obs.Trace.enabled then
      let lo, hi = Seq.iter_range set iterate in
      cost_args ~flops_per_elem args (hi - lo)
    else []
  in
  Opp_obs.Trace.with_span ~cat:"par_loop" ~args:span_args name (fun () ->
      r.r_par_loop name flops_per_elem kernel set iterate args)

(** Execute a legally-fusable group of loops as one loop body (the
    runtime counterpart of the fused bodies {!Opp_codegen.Emit} emits).
    Runs on the sequential reference engine regardless of the runner's
    backend — fusion is a plan-level optimization whose bit-identity is
    proved against back-to-back execution, and the reference engine is
    where that proof lives. Observers see one launch per member, so
    recorded step programs are unchanged by fusion; the launch itself
    is one [par_loop] span under the group's name. *)
let par_loop_fused _r ~name group set iterate =
  List.iter (fun (gname, _, _, args) -> notify_launch ~name:gname set iterate args) group;
  Opp_obs.Trace.with_span ~cat:"par_loop" name (fun () ->
      Seq.par_loop_fused ~name group set iterate)

(** Span + metrics wrapper for a particle-move launch. Exposed so
    call sites that must route around the runner (the distributed
    movers, which pass [should_stop]/[on_pending] straight to
    {!Seq.particle_move}) stay observable. [flops_per_elem]/[args]
    (per hop, like the mover's own cost accounting) let the span carry
    roofline inputs; the element count is the executed hop total. *)
let traced_move ~name ?(flops_per_elem = 0.0) ?(args = []) run =
  notify_move ~name ~args;
  let result =
    Opp_obs.Trace.with_span ~cat:"particle_move" name run ~close:(fun result ->
        cost_args ~flops_per_elem args result.Seq.mv_total_hops)
  in
  if !Opp_obs.Metrics.enabled then begin
    Opp_obs.Metrics.add "move.total_hops" (float_of_int result.Seq.mv_total_hops);
    Opp_obs.Metrics.add "move.removed" (float_of_int result.Seq.mv_removed);
    Opp_obs.Metrics.add "move.sent" (float_of_int result.Seq.mv_sent);
    Opp_obs.Metrics.set "move.max_hops" (float_of_int result.Seq.mv_max_hops)
  end;
  result

let particle_move r ~name ?(flops_per_elem = 0.0) ?dh kernel set ~p2c args =
  traced_move ~name ~flops_per_elem ~args (fun () ->
      r.r_particle_move name flops_per_elem dh kernel set p2c args)

(** The sequential reference runner, recording into [profile]. *)
let seq ?(profile = Profile.global) () =
  {
    r_name = "seq";
    r_par_loop =
      (fun name flops_per_elem kernel set iterate args ->
        Seq.par_loop ~profile ~flops_per_elem ~name kernel set iterate args);
    r_particle_move =
      (fun name flops_per_elem dh kernel set p2c args ->
        Seq.particle_move ~profile ~flops_per_elem ?dh ~name kernel set ~p2c args);
  }

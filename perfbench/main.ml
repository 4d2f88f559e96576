(* perfbench: the repository's PIC benchmark.

   Four workloads drive the libraries from outside. The benchmark calls
   their public functions (the Fempic_sim phase functions,
   Fempic_dist/Cabana_dist.step, save_checkpoint, Dist_heal.record and
   recover, Dist_balance.check) and times those calls. Per-layer figures
   come from counters the program already keeps: the Profile ledger
   passed in as [~profile], Opp_dist.Traffic, Opp_plan.Exec skip counts,
   Field_solver.stats, Seq.move_result and Gc.quick_stat. Halo time comes
   from the program's own Opp_obs.Trace spans, which are switched on only
   in the traced half of a [--trace 1] run.

   End-to-end timings are reported at reference speed: each one is scaled
   by the time of a fixed reference kernel run beside it (see Reference),
   so that the shared host's changing speed does not show as a change of
   the program's.

   Usage:
     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--size full|small] [--break-solve] [--run-dir DIR]

   Output: one JSON line with the full record (environment, resolved
   configuration, statistics and every metric), then one JSON line with
   the result object {correct, attempted, failed, metrics}. With
   --trace 0 that object holds the end-to-end metrics, with --trace 1
   the per-layer ones. See perfbench/README.md. *)

open Opp_core
module Json = Opp_obs.Json
module Clock = Opp_obs.Clock
module Traffic = Opp_dist.Traffic
module S = Fempic.Fempic_sim
module FD = Apps_dist.Fempic_dist
module CD = Apps_dist.Cabana_dist

(* ------------------------------------------------------------------ *)
(* JSON output with every digit of a measured float.                   *)

let rec emit b (v : Json.t) =
  match v with
  | Json.Null -> Buffer.add_string b "null"
  | Json.Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Json.Num f ->
      if not (Float.is_finite f) then Buffer.add_string b "null"
      else if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (string_of_int (int_of_float f))
      else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Json.Str s -> Buffer.add_string b (Json.to_string (Json.Str s))
  | Json.Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          emit b x)
        l;
      Buffer.add_char b ']'
  | Json.Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Json.to_string (Json.Str k));
          Buffer.add_char b ':';
          emit b x)
        l;
      Buffer.add_char b '}'

let json_line v =
  let b = Buffer.create 4096 in
  emit b v;
  Buffer.contents b

let num f = Json.Num f
let int n = Json.Num (float_of_int n)
let str s = Json.Str s

(* ------------------------------------------------------------------ *)
(* Metric catalogue. BENCHMARK.json lists the same names and units.    *)

let end_to_end_units =
  [
    ("particle_steps_per_s", "particle-steps/s");
    ("step_ms.p50", "ms");
    ("step_ms.p90", "ms");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
  ]

let fempic_kernels =
  [ "Inject"; "CalcPosVel"; "ResetCharge"; "DepositCharge"; "ComputeNodeChargeDensity";
    "ComputeElectricField" ]

let cabana_kernels = [ "Interpolate"; "ResetAccumulator"; "AccumulateCurrent"; "AdvanceB"; "AdvanceE" ]
let movers = [ "Move"; "Move_Deposit" ]

(* Profile-ledger entries that run inside a step. Anything else in a
   ledger (ComputeJMatrix during a rebalance or respawn) is covered by
   the benchmark's own span around the call that caused it. *)
let step_ledger_names = fempic_kernels @ cabana_kernels @ movers @ [ "Solve" ]

let per_layer_units =
  List.concat_map
    (fun k -> [ ("kernel." ^ k ^ ".ms_per_step", "ms"); ("kernel." ^ k ^ ".gbps_computed", "GB/s") ])
    (fempic_kernels @ cabana_kernels)
  @ [
      ("kernel.Move.ms_per_step", "ms");
      ("kernel.Move_Deposit.ms_per_step", "ms");
      ("move.hops_per_particle", "hops");
      ("move.sent_per_step", "particles");
      ("solve.ms_per_step", "ms");
      ("solve.share", "ratio");
      ("solve.newton_iters_per_step", "iterations");
      ("solve.cg_iters_per_step", "iterations");
      ("setup.jmatrix_ms", "ms");
      ("setup.jmatrix_calls", "count");
      ("halo.ms_per_step", "ms");
      ("halo.msgs_per_step", "msgs");
      ("halo.bytes_per_step", "B");
      ("migrate.particles_per_step", "particles");
      ("migrate.msgs_per_step", "msgs");
      ("migrate.bytes_per_step", "B");
      ("solve.gather_bytes_per_step", "B");
      ("plan.skipped_frac", "ratio");
      ("ckpt.save_ms", "ms");
      ("ckpt.mb", "MB");
      ("journal.record_ms_per_step", "ms");
      ("heal.recover_ms", "ms");
      ("balance.epochs", "count");
      ("balance.epoch_ms", "ms");
      ("balance.moved_cells", "cells");
      ("balance.ratio_after", "ratio");
      ("gc.minor_mwords_per_step", "Mwords");
      ("gc.major_collections_per_step", "count");
      ("unattributed.ms_per_step", "ms");
      ("trace.overhead", "ratio");
    ]

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans: time and count the calls it makes.       *)

type tally = { mutable t_ms : float; mutable t_calls : int; mutable t_amount : float }

let tallies : (string, tally) Hashtbl.t = Hashtbl.create 16

let tally name =
  match Hashtbl.find_opt tallies name with
  | Some t -> t
  | None ->
      let t = { t_ms = 0.0; t_calls = 0; t_amount = 0.0 } in
      Hashtbl.replace tallies name t;
      t

let note ?(ms = 0.0) ?(amount = 0.0) name =
  let t = tally name in
  t.t_ms <- t.t_ms +. ms;
  t.t_calls <- t.t_calls + 1;
  t.t_amount <- t.t_amount +. amount

let now_ms () = Clock.now_s () *. 1000.0

let timed name f =
  let t0 = now_ms () in
  let r = f () in
  note ~ms:(now_ms () -. t0) name;
  r

(* ------------------------------------------------------------------ *)
(* Workload interface.                                                 *)

(* One built world. [step] runs one PIC step plus the post-step work the
   workload does, and returns the live particle count; it is the only
   timed call. [check] judges the step just run (untimed); [close] ends
   the world and runs its end-of-life checks. *)
type instance = {
  step : unit -> int;
  check : unit -> string option;
  close : unit -> string option;
  profile : Profile.t;
  traffic : Traffic.t;
  exec : Opp_plan.Exec.t option;
}

type shape =
  | Steady of { warmup : int; steps_per_s : float }
      (** one world serves the whole run: [warmup] checked but untimed
          steps, then [steps_per_s] timed steps per second of the
          requested time *)
  | Episodic of { steps : int }
      (** a fresh world per episode of [steps] steps, [episodes_per_s]
          episodes per second of the requested time *)

type workload = {
  name : string;
  why : string;
  shape : shape;
  config : (string * Json.t) list;
  setup : int -> instance;  (** the argument numbers the episode *)
  once : unit -> string option;
      (** an untimed check made once per invocation *)
}

(* ------------------------------------------------------------------ *)
(* Shared checks.                                                      *)

let finite_prefix (d : Types.dat) =
  let n = d.Types.d_set.Types.s_size * d.Types.d_dim in
  let ok = ref true in
  for i = 0 to n - 1 do
    if not (Float.is_finite d.Types.d_data.(i)) then ok := false
  done;
  !ok

let first_error checks = List.find_map (fun c -> c ()) checks

(* The nonlinear field equation of Mini-FEM-PIC, evaluated without the
   solver's code: element stiffness applied cell by cell, Boltzmann
   electrons, Dirichlet nodes skipped. Used to confirm that the
   Newton solve inside Fempic_dist.step converged. *)
module Field_oracle = struct
  type t = { mesh : Opp_mesh.Tet_mesh.t; active : bool array; prm : Fempic.Params.t }

  let create (mesh : Opp_mesh.Tet_mesh.t) prm =
    let active =
      Array.map
        (function
          | Opp_mesh.Tet_mesh.Inlet | Opp_mesh.Tet_mesh.Wall -> false
          | Opp_mesh.Tet_mesh.Outlet | Opp_mesh.Tet_mesh.Interior -> true)
        mesh.Opp_mesh.Tet_mesh.node_kind
    in
    { mesh; active; prm }

  let residual_norm o ~phi ~den =
    let m = o.mesh in
    let kphi = Array.make m.Opp_mesh.Tet_mesh.nnodes 0.0 in
    for c = 0 to m.Opp_mesh.Tet_mesh.ncells - 1 do
      let v = m.Opp_mesh.Tet_mesh.cell_volume.(c) in
      for i = 0 to 3 do
        let ni = m.Opp_mesh.Tet_mesh.cell_nodes.((4 * c) + i) in
        for j = 0 to 3 do
          let nj = m.Opp_mesh.Tet_mesh.cell_nodes.((4 * c) + j) in
          let g = ref 0.0 in
          for d = 1 to 3 do
            g :=
              !g
              +. m.Opp_mesh.Tet_mesh.cell_bary.((16 * c) + (4 * i) + d)
                 *. m.Opp_mesh.Tet_mesh.cell_bary.((16 * c) + (4 * j) + d)
          done;
          kphi.(ni) <- kphi.(ni) +. (v *. !g *. phi.(nj))
        done
      done
    done;
    let p = o.prm in
    let s = ref 0.0 in
    Array.iteri
      (fun i act ->
        if act then begin
          let arg = Float.min ((phi.(i) -. p.Fempic.Params.phi0) /. p.Fempic.Params.kte) 25.0 in
          let ne = p.Fempic.Params.plasma_den *. exp arg in
          let rho = den.(i) -. (Fempic.Params.qe *. ne) in
          let f =
            (Fempic.Params.eps0 *. kphi.(i)) -. (rho *. m.Opp_mesh.Tet_mesh.node_volume.(i))
          in
          s := !s +. (f *. f)
        end)
      o.active;
    sqrt !s

  (* The solver stops when |F| <= newton_tol * max(charge scale, |F| at
     the starting potential). The 1% slack absorbs summation order. *)
  let converged o ~phi_before ~phi ~den =
    let p = o.prm in
    let vv =
      Array.fold_left (fun a v -> a +. (v *. v)) 0.0 o.mesh.Opp_mesh.Tet_mesh.node_volume
    in
    let charge_scale = Fempic.Params.qe *. Float.max p.Fempic.Params.plasma_den 1.0 *. sqrt vv in
    let f0 = residual_norm o ~phi:phi_before ~den in
    let f = residual_norm o ~phi ~den in
    let limit = p.Fempic.Params.newton_tol *. Float.max charge_scale f0 *. 1.01 in
    if f <= limit then None
    else Some (Printf.sprintf "field solve not converged: |F| = %.3e > %.3e" f limit)
end

(* ------------------------------------------------------------------ *)
(* Options.                                                            *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  small : bool;  (** reduced sizes, for the self-test *)
  break_solve : bool;  (** self-test: cap Newton at one iteration *)
  run_dir : string;  (** scratch space for checkpoints and watch files *)
}

let fempic_prm o ~target =
  let p = { Fempic.Params.default with Fempic.Params.target_particles = target; seed = o.seed } in
  if o.break_solve then { p with Fempic.Params.max_newton = 1 } else p

let duct ~nx ~ny ~nz =
  (* 10 um hexes, as in Experiments.Config *)
  Opp_mesh.Tet_mesh.build ~nx ~ny ~nz
    ~lx:(1e-5 *. float_of_int nx)
    ~ly:(1e-5 *. float_of_int ny)
    ~lz:(1e-5 *. float_of_int nz)

let mesh_config (m : Opp_mesh.Tet_mesh.t) dims =
  [
    ("mesh", str dims);
    ("cells", int m.Opp_mesh.Tet_mesh.ncells);
    ("nodes", int m.Opp_mesh.Tet_mesh.nnodes);
  ]

(* ------------------------------------------------------------------ *)
(* Mini-FEM-PIC, sequential: fempic_solve and fempic_push.             *)

let fempic_seq ~name ~why o ~mesh ~dims ~target ~steps_per_s =
  let prm = fempic_prm o ~target in
  let probe = mesh () in
  let setup _ =
    let profile = Profile.create () in
    let runner = Runner.seq ~profile () in
    let sim = S.create ~prm ~runner ~profile (mesh ()) in
    ignore (S.prefill sim);
    let last = ref None in
    let step () =
      let before = sim.S.parts.Types.s_size in
      S.schedule_locality sim;
      let injected = S.inject_particles sim in
      S.calc_pos_vel sim;
      let mv = S.move sim in
      S.deposit_charge sim;
      S.compute_charge_density sim;
      let stats = S.solve_potential sim in
      S.compute_electric_field sim;
      sim.S.step_count <- sim.S.step_count + 1;
      Runner.step_end ~step:sim.S.step_count;
      last := Some (before, injected, mv, stats);
      sim.S.parts.Types.s_size
    in
    let check () =
      match !last with
      | None -> Some "no step recorded"
      | Some (before, injected, (mv : Seq.move_result), (st : Fempic.Field_solver.stats)) ->
          last := None;
          note "solve.newton" ~amount:(float_of_int st.Fempic.Field_solver.newton_iterations);
          note "solve.cg" ~amount:(float_of_int st.Fempic.Field_solver.cg_iterations);
          note "move.sent" ~amount:(float_of_int mv.Seq.mv_sent);
          let after = sim.S.parts.Types.s_size in
          first_error
            [
              (fun () ->
                if mv.Seq.mv_moved + mv.Seq.mv_removed + mv.Seq.mv_sent = before + injected
                   && mv.Seq.mv_sent = 0 && after = mv.Seq.mv_moved
                then None
                else
                  Some
                    (Printf.sprintf
                       "particle accounting: %d before + %d injected, moved %d removed %d sent %d, %d after"
                       before injected mv.Seq.mv_moved mv.Seq.mv_removed mv.Seq.mv_sent after));
              (fun () ->
                if st.Fempic.Field_solver.converged then None
                else
                  Some
                    (Printf.sprintf "Newton solve not converged after %d iterations (|F| = %.3e)"
                       st.Fempic.Field_solver.newton_iterations st.Fempic.Field_solver.residual));
              (fun () ->
                if finite_prefix sim.S.node_phi && finite_prefix sim.S.cell_ef then None
                else Some "non-finite potential or electric field");
            ]
    in
    {
      step;
      check;
      close = (fun () -> None);
      profile;
      traffic = Traffic.create ();
      exec = None;
    }
  in
  {
    name;
    why;
    shape = Steady { warmup = 2; steps_per_s };
    config =
      mesh_config probe dims
      @ [
          ("particles_prefilled", num target);
          ("ranks", int 1);
          ("backend", str "seq");
          ("features", Json.Arr [ str "prefill" ]);
          ("max_newton", int prm.Fempic.Params.max_newton);
        ];
    setup;
    once = (fun () -> None);
  }

(* ------------------------------------------------------------------ *)
(* CabanaPIC two-stream on four simulated ranks: cabana_mpi.           *)

(* |E_total(t) - E_total(0)| / E_total(0) may not exceed this. The
   explicit two-stream run exchanges field and kinetic energy as the
   instability grows; the total stays within a few tenths of a percent
   over the steps one run takes. *)
let cabana_energy_drift_bound = 0.02

let cabana_energy (app : CD.t) =
  let prm = app.CD.prm in
  let half_vol =
    0.5 *. Cabana.Cabana_params.dx prm *. Cabana.Cabana_params.dy prm
    *. Cabana.Cabana_params.dz prm
  in
  let total = ref 0.0 in
  Array.iteri
    (fun r (sim : Cabana.Cabana_sim.t) ->
      let e = sim.Cabana.Cabana_sim.cell_e.Types.d_data
      and b = sim.Cabana.Cabana_sim.cell_b.Types.d_data in
      for i = 0 to (3 * app.CD.owned.(r)) - 1 do
        total := !total +. (half_vol *. ((e.(i) *. e.(i)) +. (b.(i) *. b.(i))))
      done;
      let v = sim.Cabana.Cabana_sim.part_vel.Types.d_data
      and w = sim.Cabana.Cabana_sim.part_w.Types.d_data in
      for p = 0 to sim.Cabana.Cabana_sim.parts.Types.s_size - 1 do
        let sq k = v.((3 * p) + k) *. v.((3 * p) + k) in
        total := !total +. (0.5 *. Cabana.Cabana_params.me *. w.(p) *. (sq 0 +. sq 1 +. sq 2))
      done)
    app.CD.sims;
  !total

let cabana_mpi o =
  let nx, ny, nz, ppc = if o.small then (8, 8, 16, 8) else (16, 16, 32, 8) in
  let nranks = 4 in
  let prm =
    { Cabana.Cabana_params.default with Cabana.Cabana_params.nx; ny; nz; ppc; seed = o.seed }
  in
  let expected = Cabana.Cabana_params.nparticles prm in
  let setup _ =
    (* plan recorders register launch observers; drop those of earlier worlds *)
    Runner.clear_launch_hooks ();
    let profile = Profile.create () in
    let app = CD.create ~prm ~nranks ~profile ~plan:true ~plan_verbose:false () in
    let e0 = ref None in
    let check () =
      first_error
        [
          (fun () ->
            let n = CD.total_particles app in
            if n = expected then None
            else Some (Printf.sprintf "particle count %d, expected %d" n expected));
          (fun () ->
            match CD.exec app with
            | Some ex when Opp_plan.Exec.verified ex -> None
            | _ -> Some "step plan not proved");
          (fun () ->
            let e = cabana_energy app in
            match !e0 with
            | None ->
                e0 := Some e;
                if Float.is_finite e && e > 0.0 then None else Some "non-finite total energy"
            | Some e0 ->
                let drift = Float.abs (e -. e0) /. e0 in
                if drift <= cabana_energy_drift_bound then None
                else
                  Some
                    (Printf.sprintf "energy drift %.4f exceeds %.4f" drift cabana_energy_drift_bound));
        ]
    in
    {
      step =
        (fun () ->
          CD.step app;
          CD.total_particles app);
      check;
      close = (fun () -> None);
      profile;
      traffic = app.CD.traffic;
      exec = CD.exec app;
    }
  in
  {
    name = "cabana_mpi";
    why =
      "the only steady-state workload on opp_dist Exch/Mailbox/Envelope and opp_plan; \
       structured stencils and the current-depositing mover, no linear solve";
    shape = Steady { warmup = 2; steps_per_s = 23.0 };
    config =
      [
        ("mesh", str (Printf.sprintf "%dx%dx%d hex" nx ny nz));
        ("cells", int (nx * ny * nz));
        ("ppc", int ppc);
        ("particles", int expected);
        ("ranks", int nranks);
        ("partition", str "z-slabs");
        ("backend", str "mpi (simulated, serial)");
        ("features", Json.Arr [ str "plan" ]);
        ("energy_drift_bound", num cabana_energy_drift_bound);
      ];
    setup;
    once = (fun () -> None);
  }

(* ------------------------------------------------------------------ *)
(* Mini-FEM-PIC on four ranks with balance, heal, checkpoint and watch:
   fempic_resilient.                                                   *)

let ckpt_every = 10
let next_dir = ref 0

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec tree_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left (fun a e -> a + tree_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0

let fempic_resilient o =
  let nx, ny, nz, target, steps = if o.small then (4, 4, 8, 2_000.0, 20) else (8, 8, 16, 20_000.0, 60) in
  let nranks = 4 in
  let prm = fempic_prm o ~target in
  (* Episode k draws its particles and its crash from its own seed, so
     a run averages over several partition histories: the cost of a
     rebalance epoch depends strongly on the particle layout. *)
  let episode_seed k = if k = 0 then o.seed else Hashtbl.hash (o.seed, k) in
  let crash_of k =
    let rng = Random.State.make [| episode_seed k; 0x7e51 |] in
    let rank = Random.State.int rng nranks in
    (rank, 3 + Random.State.int rng (steps - 6))
  in
  (* Rebalancing at most every 20 steps keeps epochs and the heal under
     a tenth of the steps, so step_ms.p90 lands among the checkpoint
     steps rather than on the edge between two kinds of step. *)
  let balance_config =
    {
      Opp_balance.Policy.default_config with
      Opp_balance.Policy.mode = Opp_balance.Policy.Particles;
      min_interval = 20;
      net = Some Opp_perf.Netmodel.slingshot_cpu;
    }
  in
  let probe = duct ~nx ~ny ~nz in
  let oracle = Field_oracle.create probe prm in
  (* the state hash episode 0, crashed and healed, must end with *)
  let reference_hash = ref None in
  let world ~crash k =
    let prm = { prm with Fempic.Params.seed = episode_seed k } in
    incr next_dir;
    let dir = Filename.concat o.run_dir (Printf.sprintf "episode-%d" !next_dir) in
    let ckpt_dir = Filename.concat dir "ckpt" in
    let profile = Profile.create () in
    let app = FD.create ~prm ~nranks ~partitioner:`Slab ~profile (duct ~nx ~ny ~nz) in
    let mon =
      Opp_watch.Monitor.create
        ~config:{ Opp_watch.Monitor.default_config with Opp_watch.Monitor.dir = Filename.concat dir "watch" }
        ~nranks ()
    in
    FD.set_watch app mon;
    let balancer = Apps_dist.Dist_balance.fempic ~config:balance_config () in
    let healer = Apps_dist.Dist_heal.fempic ~mode:Opp_heal.Heal.Respawn () in
    Apps_dist.Dist_heal.record healer app ~step:0;
    if crash then
      Opp_resil.Fault.install
        (Opp_resil.Fault.create ~seed:(episode_seed k) ~crash:(crash_of k) [])
    else Opp_resil.Fault.uninstall ();
    let broken = ref None in
    let conserve what before =
      let after = FD.total_particles app in
      if after <> before && !broken = None then
        broken := Some (Printf.sprintf "%s changed the particle count %d -> %d" what before after)
    in
    let saves = ref 0 in
    let save () =
      timed "ckpt" (fun () -> FD.save_checkpoint app ~dir:ckpt_dir);
      incr saves
    in
    (* untimed: the directory keeps several checkpoints; count one's size
       for each save of the step *)
    let measure_saves () =
      if !saves > 0 then begin
        let kept =
          Array.fold_left
            (fun a e -> if String.starts_with ~prefix:"ckpt-" e then a + 1 else a)
            0 (Sys.readdir ckpt_dir)
        in
        let t = tally "ckpt" in
        t.t_amount <-
          t.t_amount
          +. float_of_int !saves *. float_of_int (tree_bytes ckpt_dir) /. float_of_int (max 1 kept);
        saves := 0
      end
    in
    let last = ref (0, 0, [||]) in
    let step () =
      let s = app.FD.step_count + 1 in
      let before = FD.total_particles app in
      let phi_before = Array.copy (FD.potential app) in
      let rec attempt () =
        match FD.step app with
        | injected -> injected
        | exception Opp_resil.Rank_crash { rank; step } ->
            Opp_watch.Monitor.raise_alert mon (Opp_watch.Alert.crash ~rank ~step);
            let t0 = now_ms () in
            let detail = Apps_dist.Dist_heal.recover healer app ~rank ~step in
            let ms = now_ms () -. t0 in
            note "heal" ~ms;
            Opp_watch.Monitor.raise_alert mon
              (Opp_watch.Alert.recovered ~mode:"respawn" ~rank ~step ~ms detail);
            conserve "heal" before;
            attempt ()
      in
      let injected = attempt () in
      last := (before, injected, phi_before);
      let saved = ref false in
      if s mod ckpt_every = 0 then begin
        save ();
        saved := true
      end;
      let n = FD.total_particles app in
      (match timed "balance" (fun () -> Apps_dist.Dist_balance.check balancer app ~step:s) with
      | None -> ()
      | Some ev ->
          note "balance.epoch" ~ms:ev.Apps_dist.Dist_balance.ev_ms
            ~amount:(float_of_int ev.Apps_dist.Dist_balance.ev_moved);
          note "balance.ratio_after" ~amount:ev.Apps_dist.Dist_balance.ev_after;
          conserve "rebalance" n;
          (* the section shapes changed under the journal: cut a durable
             shard at the new partition, as the resilience CLI does *)
          save ();
          saved := true);
      timed "journal" (fun () ->
          if !saved then Apps_dist.Dist_heal.rebase healer app ~step:s
          else Apps_dist.Dist_heal.record healer app ~step:s);
      FD.total_particles app
    in
    let check () =
      measure_saves ();
      let before, injected, phi_before = !last in
      let after = FD.total_particles app in
      first_error
        [
          (fun () -> Option.map (fun m -> broken := None; m) !broken);
          (fun () ->
            if after <= before + injected then None
            else
              Some
                (Printf.sprintf "particle accounting: %d after > %d before + %d injected" after
                   before injected));
          (fun () ->
            (* every survivor sits in an owned cell with valid weights *)
            let bad = ref 0 in
            Array.iteri
              (fun r (sim : S.t) ->
                let owned = app.FD.part.Opp_dist.Tet_part.locals.(r).Opp_dist.Tet_part.lm_cell_owned in
                for p = 0 to sim.S.parts.Types.s_size - 1 do
                  let c = sim.S.p2c.Types.m_data.(p) in
                  let lc = sim.S.part_lc.Types.d_data in
                  let ok = ref (c >= 0 && c < owned) in
                  for k = 0 to 3 do
                    if not (lc.((4 * p) + k) >= -1e-9) then ok := false
                  done;
                  if not !ok then incr bad
                done)
              app.FD.sims;
            if !bad = 0 then None
            else Some (Printf.sprintf "%d particles outside their owned cell" !bad));
          (fun () ->
            if
              Array.for_all
                (fun (sim : S.t) -> finite_prefix sim.S.node_phi && finite_prefix sim.S.cell_ef)
                app.FD.sims
            then None
            else Some "non-finite potential or electric field");
          (fun () ->
            Field_oracle.converged oracle ~phi_before ~phi:(FD.potential app) ~den:app.FD.g_den);
        ]
    in
    let close () =
      let hash = FD.state_hash app in
      Opp_watch.Monitor.close mon;
      Opp_resil.Fault.uninstall ();
      FD.shutdown app;
      rm_rf dir;
      match !reference_hash with
      | Some h when k = 0 && h <> hash ->
          Some (Printf.sprintf "state hash %Lx differs from the crash-free run's %Lx" hash h)
      | _ -> None
    in
    ( { step; check; close; profile; traffic = app.FD.traffic; exec = None },
      fun () -> FD.state_hash app )
  in
  let setup k = fst (world ~crash:true k) in
  let once () =
    (* the crash-free run of the same seed and balance policy *)
    let sess, hash = world ~crash:false 0 in
    let err = ref None in
    for _ = 1 to steps do
      match sess.step () with
      | _ -> if !err = None then err := sess.check ()
      | exception e -> if !err = None then err := Some (Printexc.to_string e)
    done;
    reference_hash := Some (hash ());
    ignore (sess.close ());
    Option.map (fun m -> "crash-free reference run: " ^ m) !err
  in
  {
    name = "fempic_resilient";
    why =
      "writes checkpoint shards, journal deltas and heartbeats beside the compute path; \
       rebalance epochs and the online heal sit on the step tail";
    shape = Episodic { steps };
    config =
      mesh_config probe (Printf.sprintf "%dx%dx%d duct" nx ny nz)
      @ [
          ("particles_target", num target);
          ("particles_prefilled", int 0);
          ("ranks", int nranks);
          ("partition", str "slab");
          ("backend", str "mpi (simulated, serial)");
          ("episode_steps", int steps);
          ("ckpt_every", int ckpt_every);
          ( "episode0_crash",
            let rank, step = crash_of 0 in
            Json.Obj [ ("rank", int rank); ("step", int step) ] );
          ("episode_seeds", str "episode 0 uses the seed, episode k > 0 Hashtbl.hash (seed, k)");
          ("balance_every", int balance_config.Opp_balance.Policy.min_interval);
          ("heal", str "respawn");
          ("balance", str "particles");
          ( "features",
            Json.Arr [ str "balance"; str "heal"; str "checkpoint"; str "journal"; str "watch" ] );
          ("max_newton", int prm.Fempic.Params.max_newton);
        ];
    setup;
    once;
  }

(* ------------------------------------------------------------------ *)
(* The catalogue.                                                      *)

let workloads o =
  [
    (fun () ->
      let nx, ny, nz, target = if o.small then (4, 4, 8, 2_000.0) else (16, 16, 32, 50_000.0) in
      fempic_seq ~name:"fempic_solve"
        ~why:
          "the field solve is about two thirds of each step on a paper-sized 48k-cell mesh; \
           the plain single-threaded baseline"
        o
        ~mesh:(fun () -> duct ~nx ~ny ~nz)
        ~dims:(Printf.sprintf "%dx%dx%d duct" nx ny nz)
        ~target ~steps_per_s:10.0);
    (fun () ->
      let target = if o.small then 10_000.0 else 139_200.0 in
      fempic_seq ~name:"fempic_push"
        ~why:
          "the paper's single-node regime, ~1450 particles per cell on 96 tets: push, move and \
           deposit are the whole step and the solve is negligible"
        o ~mesh:Experiments.Config.fempic_mesh ~dims:"2x2x4 duct (Experiments.Config.fempic_mesh)"
        ~target ~steps_per_s:13.0);
    (fun () -> cabana_mpi o);
    (fun () -> fempic_resilient o);
  ]

let workload_names = [ "fempic_solve"; "fempic_push"; "cabana_mpi"; "fempic_resilient" ]


(* ------------------------------------------------------------------ *)
(* Reference kernel: the machine's speed beside every timing.          *)

(* A shared host moves the speed of this program's memory-bound loops
   by up to half for minutes at a time, as neighbours' load comes and
   goes; that is more than the changes the benchmark must detect. The
   same load slows any code with the same mix of indexed loads and
   float arithmetic about as much. So a fixed kernel of that mix, the
   benchmark's own code and not the program's, runs after every timed
   step and around every set-up, and each timing is reported at
   reference speed: scaled by [nominal_ms] over the kernel's time
   measured next to it. A change to the program moves its timings and
   leaves the kernel's alone. The data lives in bigarrays, outside the
   OCaml heap, so [heap_peak_mb] does not see it. *)
module Reference = struct
  open Bigarray

  (* the kernel's time on a quiet 2-vCPU x86-64 container *)
  let nominal_ms = 4.0
  let rows = 20_000
  let per_row = 16
  let nparts = 100_000
  let ncells = 50_000

  type data = {
    cols : (int, int_elt, c_layout) Array1.t;
    vals : (float, float64_elt, c_layout) Array1.t;
    x : (float, float64_elt, c_layout) Array1.t;
    y : (float, float64_elt, c_layout) Array1.t;
    cell : (int, int_elt, c_layout) Array1.t;
    field : (float, float64_elt, c_layout) Array1.t;
    acc : (float, float64_elt, c_layout) Array1.t;
    vel : (float, float64_elt, c_layout) Array1.t;
  }

  let floats n v =
    let a = Array1.create float64 c_layout n in
    Array1.fill a v;
    a

  (* A banded sparse matrix, as a mesh's stiffness matrix is, and
     particles in a random walk over cells, as they lie after sorting.
     Fixed data: the seed of a run does not reach it. *)
  let data =
    lazy
      (let rng = Random.State.make [| 0x5eed |] in
       let cols = Array1.create int c_layout (rows * per_row) in
       for k = 0 to (rows * per_row) - 1 do
         cols.{k} <- ((k / per_row) + Random.State.int rng 400 - 200 + rows) mod rows
       done;
       let vals = Array1.create float64 c_layout (rows * per_row) in
       for k = 0 to (rows * per_row) - 1 do
         vals.{k} <- 1.0 /. float_of_int (1 + (k land 15))
       done;
       let cell = Array1.create int c_layout nparts in
       let c = ref 0 in
       for p = 0 to nparts - 1 do
         c := (!c + Random.State.int rng 3 - 1 + ncells) mod ncells;
         cell.{p} <- !c
       done;
       {
         cols;
         vals;
         x = floats rows 1.0;
         y = floats rows 0.0;
         cell;
         field = floats (4 * ncells) 0.5;
         acc = floats (4 * ncells) 0.0;
         vel = floats (3 * nparts) 0.1;
       })

  let spmv d =
    for _ = 1 to 3 do
      for r = 0 to rows - 1 do
        let s = ref 0.0 in
        for k = r * per_row to (r * per_row) + per_row - 1 do
          s := !s +. (d.vals.{k} *. d.x.{d.cols.{k}})
        done;
        d.y.{r} <- !s
      done;
      for r = 0 to rows - 1 do
        d.x.{r} <- 0.5 *. (d.x.{r} +. (d.y.{r} *. 0.01))
      done
    done

  let push d =
    for p = 0 to nparts - 1 do
      let c = 4 * d.cell.{p} in
      let e = d.field.{c} +. d.field.{c + 1} +. d.field.{c + 2} +. d.field.{c + 3} in
      let v = (d.vel.{3 * p} *. 0.999) +. (e *. 1e-3) in
      d.vel.{3 * p} <- v;
      d.vel.{(3 * p) + 1} <- d.vel.{(3 * p) + 1} +. (e *. 1e-4);
      d.vel.{(3 * p) + 2} <- d.vel.{(3 * p) + 2} -. (e *. 1e-4);
      d.acc.{c} <- d.acc.{c} +. v;
      d.acc.{c + 1} <- d.acc.{c + 1} +. (v *. 0.5);
      d.acc.{c + 2} <- d.acc.{c + 2} +. (v *. 0.25);
      d.acc.{c + 3} <- d.acc.{c + 3} +. (v *. 0.125)
    done;
    Array1.blit d.acc d.field;
    Array1.fill d.acc 0.0

  (* One untimed pass loads the kernel's data, so the timed pass does
     not depend on what the step before it left in the caches. *)
  let ms () =
    let d = Lazy.force data in
    spmv d;
    push d;
    let t0 = Clock.now_ns () in
    spmv d;
    push d;
    Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e6

  (* [ms] at reference speed, given the kernel's time beside it *)
  let scale ~ref_ms ms = ms *. nominal_ms /. ref_ms
end



(* ------------------------------------------------------------------ *)
(* Measurement windows.                                                *)

let copy_entry (e : Profile.entry) =
  { Profile.calls = e.Profile.calls; elems = e.elems; seconds = e.seconds; flops = e.flops; bytes = e.bytes }

let copy_traffic (t : Traffic.t) = { t with Traffic.halo_bytes = t.Traffic.halo_bytes }

(* One timed step: its wall time, the live particles after it and the
   reference kernel's time around it: the mean of its runs right before
   and right after the step. *)
type sample = { ms : float; live : int; ref_ms : float }

(* One set-up: its wall time and the reference kernel's time around it. *)
type setup_sample = { setup_s : float; setup_ref_ms : float }

let scaled s = Reference.scale ~ref_ms:s.ref_ms s.ms

type window = {
  mutable samples : sample list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  ledger : (string, Profile.entry) Hashtbl.t;
  traffic : Traffic.t;
  mutable skipped : int;
  mutable performed : int;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable instances : int;
  mutable jm_calls : int;
  mutable jm_seconds : float;
  mutable halo_ms : float;
  mutable tallies : (string * tally) list;
}

let new_window () =
  {
    samples = [];
    attempted = 0;
    failed = 0;
    errors = [];
    ledger = Hashtbl.create 32;
    traffic = Traffic.create ();
    skipped = 0;
    performed = 0;
    minor_words = 0.0;
    major_collections = 0;
    instances = 0;
    jm_calls = 0;
    jm_seconds = 0.0;
    halo_ms = 0.0;
    tallies = [];
  }

(* Counter baseline of one instance at the start of a window. *)
type meter = {
  sess : instance;
  m_ledger : (string * Profile.entry) list;
  m_traffic : Traffic.t;
  m_skipped : int;
  m_performed : int;
}

let exec_counts sess =
  match sess.exec with
  | Some ex -> (Opp_plan.Exec.skipped ex, Opp_plan.Exec.performed ex)
  | None -> (0, 0)

let meter sess =
  let sk, pf = exec_counts sess in
  {
    sess;
    m_ledger = List.map (fun (k, e) -> (k, copy_entry e)) (Profile.entries ~t:sess.profile ());
    m_traffic = copy_traffic sess.traffic;
    m_skipped = sk;
    m_performed = pf;
  }

(* Add the instance's counter growth since [m] into [w]. *)
let flush w m =
  List.iter
    (fun (k, (e : Profile.entry)) ->
      let base =
        match List.assoc_opt k m.m_ledger with
        | Some b -> b
        | None -> { Profile.calls = 0; elems = 0; seconds = 0.0; flops = 0.0; bytes = 0.0 }
      in
      let acc =
        match Hashtbl.find_opt w.ledger k with
        | Some a -> a
        | None ->
            let a = { Profile.calls = 0; elems = 0; seconds = 0.0; flops = 0.0; bytes = 0.0 } in
            Hashtbl.replace w.ledger k a;
            a
      in
      acc.Profile.calls <- acc.Profile.calls + e.Profile.calls - base.Profile.calls;
      acc.Profile.elems <- acc.Profile.elems + e.Profile.elems - base.Profile.elems;
      acc.Profile.seconds <- acc.Profile.seconds +. e.Profile.seconds -. base.Profile.seconds;
      acc.Profile.flops <- acc.Profile.flops +. e.Profile.flops -. base.Profile.flops;
      acc.Profile.bytes <- acc.Profile.bytes +. e.Profile.bytes -. base.Profile.bytes)
    (Profile.entries ~t:m.sess.profile ());
  let t = m.sess.traffic and b = m.m_traffic and a = w.traffic in
  a.Traffic.halo_bytes <- a.Traffic.halo_bytes +. t.Traffic.halo_bytes -. b.Traffic.halo_bytes;
  a.Traffic.halo_messages <- a.Traffic.halo_messages + t.Traffic.halo_messages - b.Traffic.halo_messages;
  a.Traffic.migrate_bytes <- a.Traffic.migrate_bytes +. t.Traffic.migrate_bytes -. b.Traffic.migrate_bytes;
  a.Traffic.migrate_messages <-
    a.Traffic.migrate_messages + t.Traffic.migrate_messages - b.Traffic.migrate_messages;
  a.Traffic.migrated_particles <-
    a.Traffic.migrated_particles + t.Traffic.migrated_particles - b.Traffic.migrated_particles;
  a.Traffic.solve_bytes <- a.Traffic.solve_bytes +. t.Traffic.solve_bytes -. b.Traffic.solve_bytes;
  let sk, pf = exec_counts m.sess in
  w.skipped <- w.skipped + sk - m.m_skipped;
  w.performed <- w.performed + pf - m.m_performed

(* ComputeJMatrix over an instance's whole life, setup included. *)
let note_jmatrix w sess =
  match List.assoc_opt "ComputeJMatrix" (Profile.entries ~t:sess.profile ()) with
  | Some e ->
      w.jm_calls <- w.jm_calls + e.Profile.calls;
      w.jm_seconds <- w.jm_seconds +. e.Profile.seconds
  | None -> ()

let fail w msg =
  w.failed <- w.failed + 1;
  if List.length w.errors < 5 then w.errors <- msg :: w.errors

(* The reference kernel's latest time; the next timed step starts
   after it. *)
let ref_before = ref nan

(* One checked step. [timed] steps become samples. *)
let run_step w m ~timed =
  let sess = m.sess in
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now_ns () in
  let outcome = try Ok (sess.step ()) with e -> Error (Printexc.to_string e) in
  let dt = Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e6 in
  let g1 = Gc.quick_stat () in
  let ref_ms =
    if timed then begin
      let after = Reference.ms () in
      let r = 0.5 *. (!ref_before +. after) in
      ref_before := after;
      r
    end
    else nan
  in
  w.attempted <- w.attempted + 1;
  let live = match outcome with Ok n -> n | Error _ -> 0 in
  (match outcome with
  | Error e -> fail w ("step raised " ^ e)
  | Ok _ -> ( match sess.check () with None -> () | Some e -> fail w e));
  if timed then begin
    w.samples <- { ms = dt; live; ref_ms } :: w.samples;
    w.minor_words <- w.minor_words +. g1.Gc.minor_words -. g0.Gc.minor_words;
    w.major_collections <-
      w.major_collections + g1.Gc.major_collections - g0.Gc.major_collections
  end

let close_instance w sess =
  match sess.close () with None -> () | Some e -> fail w e

let start_window ~traced =
  Hashtbl.reset tallies;
  Opp_obs.Metrics.disable ();
  if traced then begin
    Opp_obs.Trace.reset ();
    Opp_obs.Trace.enable ()
  end
  else Opp_obs.Trace.disable ()

let end_window w ~traced =
  if traced then begin
    let ns =
      List.fold_left
        (fun a (sp : Opp_obs.Trace.span) ->
          if sp.Opp_obs.Trace.sp_cat = "halo" then Int64.add a sp.Opp_obs.Trace.sp_dur_ns else a)
        0L (Opp_obs.Trace.spans ())
    in
    w.halo_ms <- Int64.to_float ns /. 1e6;
    Opp_obs.Trace.disable ();
    Opp_obs.Trace.reset ()
  end;
  w.tallies <- Hashtbl.fold (fun k v acc -> (k, { v with t_ms = v.t_ms }) :: acc) tallies []

(* Runs do a fixed amount of work for their requested time, not work
   until a deadline: every run of a seed then measures the same steps,
   and a machine that is fast for a while does not also get to run
   further into the simulation. *)
let work_for ~seconds ~per_second = max 1 (Float.to_int (Float.round (seconds *. per_second)))

(* A timed set-up, with the reference kernel run before and after it. *)
let timed_setup setup_samples f =
  Gc.full_major ();
  let r0 = Reference.ms () in
  let t0 = Clock.now_s () in
  let x = f () in
  let dt = Clock.now_s () -. t0 in
  let r1 = Reference.ms () in
  ref_before := r1;
  setup_samples := { setup_s = dt; setup_ref_ms = 0.5 *. (r0 +. r1) } :: !setup_samples;
  x

(* [steps] steps on one persistent world. *)
let steady_window sess ~steps ~traced =
  let w = new_window () in
  start_window ~traced;
  let m = meter sess in
  ref_before := Reference.ms ();
  for _ = 1 to steps do
    run_step w m ~timed:true
  done;
  flush w m;
  end_window w ~traced;
  w

(* Episodes per second of requested time. *)
let episodes_per_s = 0.3

(* [episodes] whole episodes, each on a fresh world. *)
let episodic_window (wl : workload) ~steps ~episodes ~traced ~setup_samples =
  let w = new_window () in
  start_window ~traced;
  for _ = 1 to episodes do
    let sess = timed_setup setup_samples (fun () -> wl.setup w.instances) in
    let m = meter sess in
    for _ = 1 to steps do
      run_step w m ~timed:true
    done;
    flush w m;
    note_jmatrix w sess;
    w.instances <- w.instances + 1;
    close_instance w sess
  done;
  end_window w ~traced;
  w

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

let sorted l = List.sort compare l

(* Linear interpolation between order statistics. *)
let quantile xs q =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* Live particles summed over the timed steps, divided by their time;
   [time] picks wall or reference-speed time of a step. *)
let throughput ?(time = scaled) w =
  let ms = List.fold_left (fun a s -> a +. time s) 0.0 w.samples in
  let live = List.fold_left (fun a s -> a + s.live) 0 w.samples in
  float_of_int live /. (ms /. 1000.0)

(* The end-to-end metrics; [time] and [setup_time] pick wall or
   reference-speed time. *)
let end_to_end_values w ~setup_samples ~time ~setup_time =
  let times = List.map time w.samples in
  [
    ("particle_steps_per_s", throughput ~time w);
    ("step_ms.p50", median times);
    ("step_ms.p90", quantile times 0.9);
    ("setup_s", median (List.map setup_time setup_samples));
    ( "heap_peak_mb",
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
  ]

(* Per-layer values from one traced window. [None] marks a layer the
   workload does not run. *)
let per_layer_values w ~untraced =
  let steps = float_of_int (max 1 (List.length w.samples)) in
  (* allocation is read from the untraced half: spans allocate too *)
  let untraced_steps = float_of_int (max 1 (List.length untraced.samples)) in
  let wall_ms = List.fold_left (fun a s -> a +. s.ms) 0.0 w.samples in
  let entry k = Hashtbl.find_opt w.ledger k in
  let per_step x = x /. steps in
  let ms_per_step k = Option.map (fun (e : Profile.entry) -> per_step (e.Profile.seconds *. 1000.0)) (entry k) in
  let gbps k =
    Option.bind (entry k) (fun (e : Profile.entry) ->
        if e.Profile.seconds > 0.0 then Some (e.Profile.bytes /. e.Profile.seconds /. 1e9) else None)
  in
  let tl k = List.assoc_opt k w.tallies in
  let tl_mean k = Option.bind (tl k) (fun t -> if t.t_calls > 0 then Some (t.t_ms /. float_of_int t.t_calls) else None) in
  let tl_amount_per_step k = Option.map (fun t -> per_step t.t_amount) (tl k) in
  let distributed = w.traffic.Traffic.halo_messages > 0 in
  let dist x = if distributed then Some x else None in
  let mover = List.find_opt (fun k -> entry k <> None) movers in
  let hops =
    Option.bind mover (fun k ->
        Option.bind (entry k) (fun (e : Profile.entry) ->
            let fpe = Opp_prof.Kernels.flops_per_elem k in
            if fpe > 0.0 && e.Profile.elems > 0 then
              Some (e.Profile.flops /. fpe /. float_of_int e.Profile.elems)
            else None))
  in
  let solve_ms = ms_per_step "Solve" in
  let attributed =
    List.fold_left
      (fun a k -> a +. Option.value ~default:0.0 (ms_per_step k))
      0.0 step_ledger_names
    +. per_step w.halo_ms
    +. List.fold_left
         (fun a k -> a +. match tl k with Some t -> per_step t.t_ms | None -> 0.0)
         0.0 [ "ckpt"; "balance"; "journal"; "heal" ]
  in
  let instances = float_of_int (max 1 w.instances) in
  let epochs = tl "balance.epoch" in
  let kernels =
    List.concat_map
      (fun k ->
        [ ("kernel." ^ k ^ ".ms_per_step", ms_per_step k); ("kernel." ^ k ^ ".gbps_computed", gbps k) ])
      (fempic_kernels @ cabana_kernels)
  in
  kernels
  @ [
      ("kernel.Move.ms_per_step", ms_per_step "Move");
      ("kernel.Move_Deposit.ms_per_step", ms_per_step "Move_Deposit");
      ("move.hops_per_particle", hops);
      ( "move.sent_per_step",
        if distributed then Some (per_step (float_of_int w.traffic.Traffic.migrated_particles))
        else tl_amount_per_step "move.sent" );
      ("solve.ms_per_step", solve_ms);
      ("solve.share", Option.map (fun s -> s *. steps /. wall_ms) solve_ms);
      ("solve.newton_iters_per_step", tl_amount_per_step "solve.newton");
      ("solve.cg_iters_per_step", tl_amount_per_step "solve.cg");
      ( "setup.jmatrix_ms",
        if w.jm_calls > 0 then Some (w.jm_seconds *. 1000.0 /. float_of_int w.jm_calls) else None );
      ("setup.jmatrix_calls", if w.jm_calls > 0 then Some (float_of_int w.jm_calls /. instances) else None);
      ("halo.ms_per_step", dist (per_step w.halo_ms));
      ("halo.msgs_per_step", dist (per_step (float_of_int w.traffic.Traffic.halo_messages)));
      ("halo.bytes_per_step", dist (per_step w.traffic.Traffic.halo_bytes));
      ("migrate.particles_per_step", dist (per_step (float_of_int w.traffic.Traffic.migrated_particles)));
      ("migrate.msgs_per_step", dist (per_step (float_of_int w.traffic.Traffic.migrate_messages)));
      ("migrate.bytes_per_step", dist (per_step w.traffic.Traffic.migrate_bytes));
      ( "solve.gather_bytes_per_step",
        if distributed && solve_ms <> None then Some (per_step w.traffic.Traffic.solve_bytes) else None );
      ( "plan.skipped_frac",
        if w.skipped + w.performed > 0 then
          Some (float_of_int w.skipped /. float_of_int (w.skipped + w.performed))
        else None );
      ("ckpt.save_ms", tl_mean "ckpt");
      ( "ckpt.mb",
        Option.bind (tl "ckpt") (fun t ->
            if t.t_calls > 0 then Some (t.t_amount /. float_of_int t.t_calls /. 1e6) else None) );
      ("journal.record_ms_per_step", Option.map (fun t -> per_step t.t_ms) (tl "journal"));
      ("heal.recover_ms", tl_mean "heal");
      ( "balance.epochs",
        Option.map
          (fun _ -> float_of_int (match epochs with Some t -> t.t_calls | None -> 0) /. instances)
          (tl "balance") );
      ("balance.epoch_ms", tl_mean "balance.epoch");
      ( "balance.moved_cells",
        Option.map
          (fun _ -> (match epochs with Some t -> t.t_amount | None -> 0.0) /. instances)
          (tl "balance") );
      ( "balance.ratio_after",
        Option.bind (tl "balance.ratio_after") (fun t ->
            if t.t_calls > 0 then Some (t.t_amount /. float_of_int t.t_calls) else None) );
      ("gc.minor_mwords_per_step", Some (untraced.minor_words /. 1e6 /. untraced_steps));
      ( "gc.major_collections_per_step",
        Some (float_of_int untraced.major_collections /. untraced_steps) );
      ("unattributed.ms_per_step", Some ((wall_ms /. steps) -. attributed));
      ("trace.overhead", Some (throughput untraced /. throughput w));
    ]

(* ------------------------------------------------------------------ *)
(* Main.                                                               *)

(* [ref_times] are the reference kernel's times in the run; they tell a
   slower machine from slower code. *)
let environment ~ref_times =
  Json.Obj
    [
      ("ocaml_version", str Sys.ocaml_version);
      ("nproc", int (Domain.recommended_domain_count ()));
      ("word_size", int Sys.word_size);
      ("os_type", str Sys.os_type);
      ( "reference_kernel",
        Json.Obj
          [
            ("nominal_ms", num Reference.nominal_ms);
            ("samples", int (List.length ref_times));
            ("p10_ms", num (quantile ref_times 0.1));
            ("p50_ms", num (median ref_times));
            ("p90_ms", num (quantile ref_times 0.9));
          ] );
    ]

let metrics_obj units values =
  Json.Obj
    (List.map
       (fun (name, unit_) ->
         let v = match List.assoc_opt name values with Some v -> v | None -> 0.0 in
         (name, Json.Obj [ ("value", num v); ("unit", str unit_) ]))
       units)

let run o =
  let wl =
    match List.assoc_opt o.workload (List.combine workload_names (workloads o)) with
    | Some make -> make ()
    | None ->
        Printf.eprintf "error: unknown workload %S (known: %s)\n%!" o.workload
          (String.concat ", " workload_names);
        exit 2
  in
  let once_error = wl.once () in
  let setup_samples = ref [] in
  let untraced_s = if o.trace then o.seconds /. 2.0 else o.seconds in
  let untraced, traced, warm =
    match wl.shape with
    | Steady { warmup; steps_per_s } ->
        let steps seconds = work_for ~seconds ~per_second:steps_per_s in
        (* set up five times and report the median; the last world runs *)
        let sess = ref None in
        for i = 1 to 5 do
          let s = timed_setup setup_samples (fun () -> wl.setup 0) in
          if i = 5 then sess := Some s else ignore (s.close ())
        done;
        let sess = Option.get !sess in
        let warm = new_window () in
        start_window ~traced:false;
        let m = meter sess in
        for _ = 1 to warmup do
          run_step warm m ~timed:false
        done;
        let u = steady_window sess ~steps:(steps untraced_s) ~traced:false in
        let t =
          if o.trace then Some (steady_window sess ~steps:(steps (o.seconds /. 2.0)) ~traced:true)
          else None
        in
        (* the instance's whole-life ComputeJMatrix entry *)
        note_jmatrix (match t with Some t -> t | None -> u) sess;
        close_instance warm sess;
        (u, t, warm)
    | Episodic { steps } ->
        let episodes seconds = work_for ~seconds ~per_second:episodes_per_s in
        let u =
          episodic_window wl ~steps ~episodes:(episodes untraced_s) ~traced:false ~setup_samples
        in
        let t =
          if o.trace then
            Some
              (episodic_window wl ~steps ~episodes:(episodes (o.seconds /. 2.0)) ~traced:true
                 ~setup_samples)
          else None
        in
        (u, t, new_window ())
  in
  let windows = warm :: untraced :: Option.to_list traced in
  let attempted = List.fold_left (fun a w -> a + w.attempted) 0 windows in
  let failed = List.fold_left (fun a w -> a + w.failed) 0 windows in
  let errors =
    Option.to_list once_error @ List.concat_map (fun w -> List.rev w.errors) windows
  in
  let correct = failed = 0 && once_error = None in
  let setup_samples = List.rev !setup_samples in
  let e2e =
    end_to_end_values untraced ~setup_samples ~time:scaled ~setup_time:(fun s ->
        Reference.scale ~ref_ms:s.setup_ref_ms s.setup_s)
  in
  let e2e_wall =
    end_to_end_values untraced ~setup_samples ~time:(fun s -> s.ms) ~setup_time:(fun s -> s.setup_s)
  in
  let layers = Option.map (fun t -> per_layer_values t ~untraced) traced in
  let times = List.map scaled untraced.samples in
  let ref_times =
    List.map (fun s -> s.ref_ms) untraced.samples @ List.map (fun s -> s.setup_ref_ms) setup_samples
  in
  let p90 = quantile times 0.9 in
  let record =
    Json.Obj
      ([
         ("benchmark", str "perfbench");
         ("workload", str wl.name);
         ("why", str wl.why);
         ("seed", int o.seed);
         ("seconds", num o.seconds);
         ("trace", Json.Bool o.trace);
         ("size", str (if o.small then "small" else "full"));
         ("environment", environment ~ref_times);
         ("config", Json.Obj wl.config);
         ( "statistics",
           Json.Obj
             [
               ("step_samples", int (List.length times));
               ("samples_beyond_p90", int (List.length (List.filter (fun t -> t > p90) times)));
               ("setup_samples_s", Json.Arr (List.map (fun s -> num s.setup_s) setup_samples));
               ("attempted", int attempted);
               ("failed", int failed);
               ("failed_frac", num (float_of_int failed /. float_of_int (max 1 attempted)));
               ("errors", Json.Arr (List.map str errors));
             ] );
         ("end_to_end", metrics_obj end_to_end_units e2e);
         ("end_to_end_wall", metrics_obj end_to_end_units e2e_wall);
       ]
      @
      match layers with
      | None -> []
      | Some l ->
          [
            ( "per_layer",
              Json.Obj
                (List.filter_map
                   (fun (name, unit_) ->
                     match List.assoc_opt name l with
                     | Some (Some v) -> Some (name, Json.Obj [ ("value", num v); ("unit", str unit_) ])
                     | _ -> None)
                   per_layer_units) );
            ( "not_applicable",
              Json.Arr
                (List.filter_map
                   (fun (name, _) ->
                     match List.assoc_opt name l with Some (Some _) -> None | _ -> Some (str name))
                   per_layer_units) );
          ])
  in
  print_endline (json_line record);
  let metrics =
    match layers with
    | None -> metrics_obj end_to_end_units e2e
    | Some l ->
        metrics_obj per_layer_units
          (List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v) l)
  in
  print_endline
    (json_line
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", int attempted);
            ("failed", int failed);
            ("metrics", metrics);
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let size = ref "full" and break_solve = ref false and run_dir = ref ".bench_build/run" in
  let spec =
    [
      ("--workload", Stdlib.Arg.Set_string workload, "NAME one of " ^ String.concat ", " workload_names);
      ("--seed", Stdlib.Arg.Set_int seed, "N input seed");
      ("--seconds", Stdlib.Arg.Set_float seconds, "S measured time");
      ("--trace", Stdlib.Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--size", Stdlib.Arg.Set_string size, "full|small workload size (small is for the self-test)");
      ("--break-solve", Stdlib.Arg.Set break_solve, " cap Newton at one iteration (self-test)");
      ("--run-dir", Stdlib.Arg.Set_string run_dir, "DIR scratch directory for checkpoints and watch files");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Stdlib.Arg.parse spec (fun a -> raise (Stdlib.Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload workload_names) then begin
    Printf.eprintf "error: --workload must be one of %s\n%!" (String.concat ", " workload_names);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "error: --trace must be 0 or 1";
    exit 2
  end;
  if not (!seconds > 0.0) then begin
    prerr_endline "error: --seconds must be positive";
    exit 2
  end;
  if !size <> "full" && !size <> "small" then begin
    prerr_endline "error: --size must be full or small";
    exit 2
  end;
  let run_dir = Filename.concat !run_dir (Printf.sprintf "pid-%d" (Unix.getpid ())) in
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      small = !size = "small";
      break_solve = !break_solve;
      run_dir;
    }
  in
  Fun.protect ~finally:(fun () -> rm_rf run_dir) (fun () -> run o)

(** Mini-FEM-PIC over the simulated-MPI backend.

    The duct is partitioned into columns along the particle-motion
    axis (the paper's custom partitioning after PUMIPic), each rank
    runs a rank-local {!Fempic.Fempic_sim} in SPMD lockstep, and this
    driver interleaves the communication: node-halo reduction and
    refresh after charge deposits, particle packing / migration /
    walk continuation at rank boundaries, and the field solve.

    The field solve is gathered to a single global solver
    (gather-solve-scatter) — the stand-in for the distributed PETSc
    KSP; its traffic is counted so the scaling model can charge it.
    Everything else runs genuinely distributed, and results match the
    sequential run because injection RNG streams are keyed by global
    inlet-face identity. *)

open Opp_core
open Opp_dist

type t = {
  mutable nranks : int;  (** shrinks when a rank is lost under --heal=shrink *)
  prm : Fempic.Params.t;
  mutable part : Tet_part.t;
  mutable sims : Fempic.Fempic_sim.t array;
  mk_sim : Tet_part.local_mesh -> Fempic.Fempic_sim.t;
      (** rank-sim factory (captures runner/profile/locality), used by
          online recovery to rebuild a rank's sim in place *)
  threads : Opp_thread.Thread_runner.t option;
      (** MPI+OpenMP hybrid: one Domains pool shared by the (serially
          executed) ranks *)
  overlay : Opp_mesh.Overlay.t option;
      (** rank-map for the direct-hop global move (paper 3.2.2): one
          shared copy, as with the MPI-RMA window per node *)
  global_solver : Fempic.Field_solver.t;
  g_phi : float array;
  g_den : float array;
  traffic : Traffic.t;
  profile : Profile.t;
  locality : Opp_locality.Sched.t option;
      (** shared sort scheduler (one instance, per-rank particle sets
          are tracked independently by physical identity) *)
  plan : Opp_plan.Exec.t option;
      (** step-program recorder / legality-proved plan applier: step 1
          records the schedule, later steps skip proved-redundant
          exchanges (see [Opp_plan.Exec]) *)
  mutable step_count : int;
  mutable last_migrated : int;
  mutable watch : Dist_watch.t option;  (** live health monitor plumbing *)
}

let create ?(prm = Fempic.Params.default) ?(nranks = 2) ?(partitioner = `Columns)
    ?(use_direct_hop = false) ?workers ?(checked = false) ?locality
    ?(profile = Profile.global) ?(plan = false) ?(plan_verbose = true)
    (mesh : Opp_mesh.Tet_mesh.t) =
  let centroid c =
    [|
      mesh.Opp_mesh.Tet_mesh.cell_centroid.(3 * c);
      mesh.Opp_mesh.Tet_mesh.cell_centroid.((3 * c) + 1);
      mesh.Opp_mesh.Tet_mesh.cell_centroid.((3 * c) + 2);
    |]
  in
  let cell_rank =
    match partitioner with
    | `Columns ->
        Partition.columns ~nranks ~ncells:mesh.Opp_mesh.Tet_mesh.ncells
          ~x:(fun c -> (centroid c).(0))
          ~y:(fun c -> (centroid c).(1))
    | `Slab ->
        Partition.slab ~nranks ~ncells:mesh.Opp_mesh.Tet_mesh.ncells
          ~coord:(fun c -> (centroid c).(2))
    | `Rcb -> Partition.rcb ~nranks ~ncells:mesh.Opp_mesh.Tet_mesh.ncells ~centroid
  in
  let part = Tet_part.build mesh ~cell_rank ~nranks in
  let total_inlet_area =
    Array.fold_left
      (fun acc f -> acc +. f.Opp_mesh.Tet_mesh.f_area)
      0.0 mesh.Opp_mesh.Tet_mesh.inlet_faces
  in
  let sched =
    Option.map (fun config -> Opp_locality.Sched.create ~config ()) locality
  in
  let threads =
    Option.map (fun w -> Opp_thread.Thread_runner.create ~profile ?sched ~workers:w ()) workers
  in
  let runner =
    match threads with
    | Some th -> Opp_thread.Thread_runner.runner th
    | None -> (
        match sched with
        | Some s -> Opp_locality.Binned.runner ~profile s
        | None -> Runner.seq ~profile ())
  in
  (* sanitized runs execute every rank's loops under the opp_check
     instrumented engine (stale-halo reads included; see Freshness) *)
  let runner = if checked then Opp_check.checked ~profile runner else runner in
  let mk_sim lm =
    let sim =
      Fempic.Fempic_sim.create ~prm ~runner ~profile ?locality:sched ~total_inlet_area
        lm.Tet_part.lm_mesh
    in
    sim.Fempic.Fempic_sim.cells.Types.s_exec_size <- lm.Tet_part.lm_cell_owned;
    sim.Fempic.Fempic_sim.nodes.Types.s_exec_size <- lm.Tet_part.lm_node_owned;
    sim
  in
  let sims = Array.map mk_sim part.Tet_part.locals in
  (* global field solver with the same boundary conditions *)
  let nnodes = mesh.Opp_mesh.Tet_mesh.nnodes in
  let active = Array.make nnodes true in
  let g_phi = Array.make nnodes 0.0 in
  Array.iteri
    (fun n kind ->
      match kind with
      | Opp_mesh.Tet_mesh.Inlet ->
          active.(n) <- false;
          g_phi.(n) <- prm.Fempic.Params.inlet_potential
      | Opp_mesh.Tet_mesh.Wall ->
          active.(n) <- false;
          g_phi.(n) <- prm.Fempic.Params.wall_potential
      | Opp_mesh.Tet_mesh.Outlet | Opp_mesh.Tet_mesh.Interior -> ())
    mesh.Opp_mesh.Tet_mesh.node_kind;
  let global_solver =
    Fempic.Field_solver.create ~nnodes ~ncells:mesh.Opp_mesh.Tet_mesh.ncells
      ~cell_nodes:mesh.Opp_mesh.Tet_mesh.cell_nodes ~cell_bary:mesh.Opp_mesh.Tet_mesh.cell_bary
      ~cell_volume:mesh.Opp_mesh.Tet_mesh.cell_volume
      ~node_volume:mesh.Opp_mesh.Tet_mesh.node_volume ~active
      ~comm:(Fempic.Field_solver.comm_seq ~nnodes)
      prm
  in
  let overlay =
    if not use_direct_hop then None
    else begin
      let ov = Opp_mesh.Overlay.of_tet_mesh mesh in
      Opp_mesh.Overlay.assign_ranks ov ~cell_rank;
      Some ov
    end
  in
  {
    nranks;
    prm;
    part;
    sims;
    mk_sim;
    threads;
    overlay;
    global_solver;
    g_phi;
    g_den = Array.make nnodes 0.0;
    traffic = Traffic.create ();
    profile;
    locality = sched;
    plan =
      (if plan then Some (Opp_plan.Exec.create ~verbose:plan_verbose ~name:"fempic_dist" ())
       else None);
    step_count = 0;
    last_migrated = 0;
    watch = None;
  }

(** Attach a live health monitor; every subsequent {!step} emits
    per-rank heartbeats through it (see [Opp_watch]). *)
let set_watch t mon = t.watch <- Some (Dist_watch.create ~nranks:t.nranks mon)

(** Poison the gathered potential with one NaN — the watch canary's
    self-test hook ([--inject-nan]). The potential seeds the in-place
    Newton solve, so the NaN survives the solve, is scattered to every
    rank's [node_phi], and spreads into the electric field within the
    same step. *)
let poison t = t.g_phi.(0) <- Float.nan

(* Run every rank's share of a phase, each on its own trace track
   under one phase span (see [Dist_watch.on_rank]). *)
let rank_phase t name f =
  Array.iteri (fun r sim -> Dist_watch.on_rank t.plan r name (fun () -> f r sim)) t.sims

(* --- world state (see [Opp_dist.World]) --- *)

(** Fempic's declaration of its state: the four node/cell fields, the
    ion row (position, velocity, barycentric weights), and the
    per-inlet-face injection carries and RNG streams keyed by the
    face's global id. Section names are the checkpoint format's. *)
let state (sim : Fempic.Fempic_sim.t) =
  let open Fempic.Fempic_sim in
  let faces =
    Array.map (fun f -> f.Opp_mesh.Tet_mesh.f_id) sim.mesh.Opp_mesh.Tet_mesh.inlet_faces
  in
  {
    World.fields =
      [
        ("node_phi", sim.node_phi);
        ("node_charge", sim.node_charge);
        ("node_charge_den", sim.node_charge_den);
        ("cell_ef", sim.cell_ef);
      ];
    scratch = [];
    parts = [ ("part_pos", sim.part_pos); ("part_vel", sim.part_vel); ("part_lc", sim.part_lc) ];
    p2c = sim.p2c;
    meta = [];
    extras =
      [
        World.Carry ("face_carry", faces, sim.face_carry);
        World.Streams ("face_rng", faces, sim.face_rng);
      ];
  }

(* Rank [r]'s sim placed in partition [part]. *)
let view (part : Tet_part.t) r (sim : Fempic.Fempic_sim.t) =
  let open Tet_part in
  let lm = part.locals.(r) in
  {
    World.state = state sim;
    meshes =
      [
        { World.set = sim.Fempic.Fempic_sim.cells; gid = lm.lm_cell_g; owned = lm.lm_cell_owned };
        { World.set = sim.Fempic.Fempic_sim.nodes; gid = lm.lm_node_g; owned = lm.lm_node_owned };
      ];
    local_cell = Hashtbl.find part.cell_g2l.(r);
  }

(* --- particle migration --- *)

(* Direct-hop global move: consult the rank map at each particle's new
   position and ship rank-changers straight to their destination (with
   the overlay cell as the walk's starting hint), instead of walking
   them across every intermediate partition. *)
let direct_hop_prepass t mail =
  match t.overlay with
  | None -> ()
  | Some ov ->
      Array.iteri
        (fun r sim ->
          let st = state sim in
          let n = sim.Fempic.Fempic_sim.parts.Types.s_size in
          let dead = Array.make (max n 1) false in
          let any = ref false in
          for p = 0 to n - 1 do
            let d = sim.Fempic.Fempic_sim.part_pos.Types.d_data in
            let x = d.(3 * p) and y = d.((3 * p) + 1) and z = d.((3 * p) + 2) in
            let dest = Opp_mesh.Overlay.rank_of ov ~x ~y ~z in
            if dest >= 0 && dest <> r then begin
              let hint = Opp_mesh.Overlay.locate ov ~x ~y ~z in
              if hint >= 0 && t.part.Tet_part.cell_rank.(hint) = dest then begin
                Mailbox.post mail ~src:r ~dest ~cell:hint ~payload:(World.payload st p);
                dead.(p) <- true;
                any := true
              end
            end
          done;
          if !any then ignore (Particle.remove_flagged sim.Fempic.Fempic_sim.parts dead))
        t.sims

(** Move every rank's particles, migrating and continuing walks until
    the whole fleet has settled. Returns particles that changed rank. *)
let move_particles t =
  let mail =
    Mailbox.create ~nranks:t.nranks ~payload_dim:(World.payload_dim (state t.sims.(0)))
  in
  let unpack r batch = World.unpack (view t.part r t.sims.(r)) batch in
  let migrated = ref 0 in
  direct_hop_prepass t mail;
  migrated := !migrated + Mailbox.deliver ~traffic:t.traffic mail unpack;
  Array.iter (fun sim -> Opp.reset_injected sim.Fempic.Fempic_sim.parts) t.sims;
  let move_rank r iterate =
    let sim = t.sims.(r) in
    let v = view t.part r sim in
    let owned = t.part.Tet_part.locals.(r).Tet_part.lm_cell_owned in
    Dist_watch.on_rank t.plan r "MovePhase" (fun () ->
        ignore
          (Fempic.Fempic_sim.move
             ~should_stop:(fun c -> c >= owned)
             ~on_pending:(fun ~p ~cell ->
               World.pack v mail ~src:r ~owner:t.part.Tet_part.cell_rank ~p ~cell)
             ~iterate sim))
  in
  for r = 0 to t.nranks - 1 do
    move_rank r Seq.Iterate_all
  done;
  let rounds = ref 0 in
  while Mailbox.total mail > 0 do
    incr rounds;
    if !rounds > 1000 then failwith "Fempic_dist.move_particles: migration did not settle";
    Array.iter (fun sim -> Opp.reset_injected sim.Fempic.Fempic_sim.parts) t.sims;
    let received = Array.make t.nranks false in
    migrated :=
      !migrated
      + Mailbox.deliver ~traffic:t.traffic mail (fun r batch ->
            received.(r) <- true;
            unpack r batch);
    for r = 0 to t.nranks - 1 do
      if received.(r) then move_rank r Seq.Iterate_injected
    done
  done;
  Array.iter (fun sim -> Opp.reset_injected sim.Fempic.Fempic_sim.parts) t.sims;
  t.last_migrated <- !migrated;
  !migrated

(* --- field solve (gather - solve - scatter) --- *)

let solve_field t =
  let nnodes = t.part.Tet_part.global.Opp_mesh.Tet_mesh.nnodes in
  let ranks = Array.mapi (view t.part) t.sims in
  (* gather owned node charge densities *)
  Array.blit (World.gather ranks "node_charge_den") 0 t.g_den 0 nnodes;
  let stats =
    Profile.timed ~t:t.profile ~name:"Solve" (fun () ->
        Fempic.Field_solver.solve t.global_solver ~phi:t.g_phi ~ion_charge_density:t.g_den)
  in
  (* scatter the potential to every rank's owned and halo nodes *)
  World.scatter ranks "node_phi" t.g_phi;
  t.traffic.Traffic.solve_bytes <-
    t.traffic.Traffic.solve_bytes +. float_of_int (2 * nnodes * 8);
  t.traffic.Traffic.reductions <- t.traffic.Traffic.reductions + 2;
  stats

(* --- resilience: rank faults and distributed checkpoint/restart --- *)

module Ckpt = Opp_resil.Ckpt

(* One rank's shard: everything its local sim needs for a bit-exact
   resume — the particles, the fields over owned AND halo elements
   (restored halos are therefore fresh), and the injection state. *)
let rank_sections t r = World.sections (state t.sims.(r))

let restore_rank t r sections = World.restore (state t.sims.(r)) sections

(** Every rank's checkpoint sections — what the heal journal records
    at each step boundary. *)
let sections_all t = Array.init t.nranks (rank_sections t)

(** Save a sharded checkpoint of the whole distributed state under
    [dir] (one shard per rank; the driver's state — the gathered
    potential, which seeds the next CG solve, and the step counter —
    rides on rank 0's shard). Atomic and checksummed: see
    [Opp_resil.Ckpt]. *)
let save_checkpoint ?keep t ~dir =
  let shards = sections_all t in
  shards.(0) <-
    shards.(0)
    @ [ Ckpt.Floats ("g_phi", Array.copy t.g_phi); Ckpt.Ints ("driver", [| t.step_count |]) ];
  Ckpt.save ?keep ~dir ~step:t.step_count shards

(** Restore the newest valid checkpoint under [dir] into [t] (built on
    the same mesh, parameters, and rank count). Returns the restored
    step, or [None] when no valid checkpoint exists. A resumed run
    continues bit-for-bit like the uninterrupted one. *)
let restore_checkpoint t ~dir =
  match Ckpt.load ~dir with
  | None -> None
  | Some (step, shards) ->
      if Array.length shards <> t.nranks then
        raise (Ckpt.Corrupt "checkpoint rank count mismatch");
      Array.iteri (restore_rank t) shards;
      let g_phi = Ckpt.floats shards.(0) "g_phi" in
      if Array.length g_phi <> Array.length t.g_phi then
        raise (Ckpt.Corrupt "g_phi size mismatch");
      Array.blit g_phi 0 t.g_phi 0 (Array.length g_phi);
      t.step_count <- (Ckpt.ints shards.(0) "driver").(0);
      Array.iter
        (fun sim -> sim.Fempic.Fempic_sim.step_count <- t.step_count)
        t.sims;
      Some step

(* --- online recovery (opp_heal, docs/RESILIENCE.md) --- *)

(** Respawn recovery: rebuild rank [rank]'s sim in place from its
    reconstructed sections (checkpoint shard + replayed journal
    deltas), then epoch-fence both exchanges so any straggler stamped
    with the dead epoch is rejected as stale. Survivors are untouched;
    the continuation is bit-identical to the fault-free run because
    crashes fire at the top of a step, before any state mutates. *)
let respawn t ~rank sections =
  if rank < 0 || rank >= t.nranks then invalid_arg "Fempic_dist.respawn: bad rank";
  (* the replaced sim's sets die here: drop their scheduler entries so
     the sort scheduler neither leaks them nor reuses a stale floor *)
  (match t.locality with
  | Some s -> Opp_locality.Sched.forget s t.sims.(rank).Fempic.Fempic_sim.parts
  | None -> ());
  t.sims.(rank) <- t.mk_sim t.part.Tet_part.locals.(rank);
  restore_rank t rank sections;
  t.sims.(rank).Fempic.Fempic_sim.step_count <- t.step_count;
  Exch.fence t.part.Tet_part.cell_exch;
  Exch.fence t.part.Tet_part.node_exch;
  (match t.watch with
  | Some wo -> Opp_watch.Monitor.set_rank_state (Dist_watch.monitor wo) rank "respawned"
  | None -> ())

(* Cell adjacency by shared node — the neighbour relation the
   re-partitioners diffuse and re-bisect over. *)
let cell_neighbours (mesh : Opp_mesh.Tet_mesh.t) =
  let node_cells = Array.make mesh.Opp_mesh.Tet_mesh.nnodes [] in
  for c = 0 to mesh.Opp_mesh.Tet_mesh.ncells - 1 do
    for k = 0 to 3 do
      let n = mesh.Opp_mesh.Tet_mesh.cell_nodes.((4 * c) + k) in
      node_cells.(n) <- c :: node_cells.(n)
    done
  done;
  fun c ->
    let seen = Hashtbl.create 16 in
    for k = 0 to 3 do
      let n = mesh.Opp_mesh.Tet_mesh.cell_nodes.((4 * c) + k) in
      List.iter (fun c' -> if c' <> c then Hashtbl.replace seen c' ()) node_cells.(n)
    done;
    Hashtbl.fold (fun c' () acc -> c' :: acc) seen [] |> List.sort compare

let mesh_centroid (mesh : Opp_mesh.Tet_mesh.t) c =
  [|
    mesh.Opp_mesh.Tet_mesh.cell_centroid.(3 * c);
    mesh.Opp_mesh.Tet_mesh.cell_centroid.((3 * c) + 1);
    mesh.Opp_mesh.Tet_mesh.cell_centroid.((3 * c) + 2);
  |]

(* Live re-partition of the running world (see [World.transition]),
   then swap it in place. The global solver, g_phi/g_den, traffic and
   profile survive: they are defined over the global mesh. Every
   particle set was replaced, so the scheduler drops all its entries. *)
let transition t ~new_owner ~dead =
  let world =
    {
      World.build =
        (fun ~cell_rank ~nranks -> Tet_part.build t.part.Tet_part.global ~cell_rank ~nranks);
      exchanges = (fun part -> [ part.Tet_part.cell_exch; part.Tet_part.node_exch ]);
      spawn =
        (fun part r ->
          let sim = t.mk_sim part.Tet_part.locals.(r) in
          sim.Fempic.Fempic_sim.step_count <- t.step_count;
          sim);
      rank = view;
    }
  in
  let part, sims =
    World.transition world ~traffic:t.traffic ~old:(t.part, t.sims) ~new_owner ~dead
  in
  t.part <- part;
  t.sims <- sims;
  t.nranks <- Array.length sims;
  (match t.locality with Some s -> Opp_locality.Sched.reset s | None -> ());
  match t.overlay with
  | Some ov -> Opp_mesh.Overlay.assign_ranks ov ~cell_rank:part.Tet_part.cell_rank
  | None -> ()

(** Shrink recovery: the job degrades onto the surviving ranks. The
    dead rank's cells are re-bisected among its neighbours
    ({!Partition.heal_reassign}), the world is rebuilt on the compacted
    rank numbering (survivors ascending; [Exch.create] revalidates
    every link, E070–E072), and the dead rank's reconstructed
    particles arrive via the mailbox's delivery-deadline reroute.
    Returns the new rank count. Not bit-identical to the clean run
    (reduction order changes); conservation and the state-hash oracle
    validate it. *)
let shrink t ~dead dead_sections =
  if t.nranks < 2 then invalid_arg "Fempic_dist.shrink: nothing to shrink onto";
  if dead < 0 || dead >= t.nranks then invalid_arg "Fempic_dist.shrink: bad rank";
  let mesh = t.part.Tet_part.global in
  let new_owner =
    Partition.heal_reassign ~nranks:t.nranks ~dead ~cell_rank:t.part.Tet_part.cell_rank
      ~centroid:(mesh_centroid mesh) ~neighbours:(cell_neighbours mesh)
  in
  transition t ~new_owner ~dead:(Some (dead, dead_sections));
  (match t.watch with
  | Some wo ->
      let mon = Dist_watch.monitor wo in
      Opp_watch.Monitor.shrink_ranks mon ~dead
        ~detail:
          (Printf.sprintf "rank %d lost at step %d; shrunk to %d ranks" dead t.step_count
             t.nranks);
      t.watch <- Some (Dist_watch.create ~nranks:t.nranks mon)
  | None -> ());
  t.nranks

(* --- live load rebalance (opp_balance, docs/PERFORMANCE.md) --- *)

(** Per-global-cell particle counts — the [Particles] balance mode's
    cell weight. *)
let cell_particle_weights t = World.cell_counts (Array.mapi (view t.part) t.sims)

(** Live migration epoch: re-partition the running world onto the same
    rank count by weighted diffusion ({!Partition.rebalance}) and move
    everything to its new owner without stopping the run
    ({!World.transition}). Pure ownership change — no owned value is
    touched — so {!state_hash} is bit-identical across the epoch;
    callers must reset/rebase any heal journal (the section shapes
    changed). Returns the number of cells that changed owner (0 = the
    plan was a no-op and nothing was rebuilt). *)
let rebalance ?max_move_frac t ~weight =
  if t.nranks < 2 then 0
  else begin
    let mesh = t.part.Tet_part.global in
    let old_rank = t.part.Tet_part.cell_rank in
    let new_owner =
      Partition.rebalance ~nranks:t.nranks ~cell_rank:old_rank ~weight
        ~centroid:(mesh_centroid mesh) ~neighbours:(cell_neighbours mesh) ?max_move_frac ()
    in
    let moved = ref 0 in
    Array.iteri (fun c r -> if new_owner.(c) <> r then incr moved) old_rank;
    if !moved > 0 then transition t ~new_owner ~dead:None;
    !moved
  end

(** Order-canonical hash of the global owned state
    ({!World.state_hash}): invariant under any re-partition that
    preserves the physics, which is what the shrink oracle asserts. *)
let state_hash t = World.state_hash (Array.mapi (view t.part) t.sims)

(* --- the distributed step --- *)

let do_step t =
  Opp_plan.Exec.step_begin t.plan;
  (* armed rank faults (crash / stall) fire before any state mutates,
     so a crashed step can be replayed from the last checkpoint *)
  (match Opp_resil.Fault.active () with
  | Some inj -> Opp_resil.Fault.begin_step inj ~step:(t.step_count + 1)
  | None -> ());
  (* per-rank sort-scheduling point (no-op without [?locality]) *)
  if t.locality <> None then
    rank_phase t "SortSchedule" (fun _ sim -> Fempic.Fempic_sim.schedule_locality sim);
  let injected = ref 0 in
  rank_phase t "Inject" (fun _ sim ->
      injected := !injected + Fempic.Fempic_sim.inject_particles sim);
  rank_phase t "CalcPosVel" (fun _ sim -> Fempic.Fempic_sim.calc_pos_vel sim);
  ignore (move_particles t);
  rank_phase t "Deposit" (fun _ sim -> Fempic.Fempic_sim.deposit_charge sim);
  (* push halo-node deposits to their owners, then refresh the copies
     (the exchange also clears node_charge's halo-dirty bit) *)
  let node_charge r = t.sims.(r).Fempic.Fempic_sim.node_charge.Types.d_data in
  let node_charge_dats = Array.map (fun sim -> sim.Fempic.Fempic_sim.node_charge) t.sims in
  Opp_plan.Exec.collective t.plan ~site:"node_charge.reduce" ~kind:`Reduce
    ~dats:[ "node_charge" ] (fun () ->
      Exch.reduce ~traffic:t.traffic t.part.Tet_part.node_exch ~dim:1 ~data:node_charge);
  Opp_plan.Exec.collective t.plan ~site:"node_charge.exchange" ~kind:`Exchange
    ~dats:[ "node_charge" ] (fun () ->
      Exch.exchange ~traffic:t.traffic ~dats:node_charge_dats t.part.Tet_part.node_exch
        ~dim:1 ~data:node_charge);
  rank_phase t "ChargeDensity" (fun _ sim -> Fempic.Fempic_sim.compute_charge_density sim);
  (* Iterate_all over replicated fresh inputs recomputes the halo
     copies locally: no exchange needed, assert freshness instead *)
  Array.iter (fun sim -> Freshness.mark_fresh sim.Fempic.Fempic_sim.node_charge_den) t.sims;
  Opp_plan.Exec.mark_fresh t.plan ~dats:[ "node_charge_density" ];
  (* gathers owned densities only; the scatter covers owned AND halo
     potentials, so node_potential comes back fresh *)
  Opp_plan.Exec.opaque t.plan ~name:"Solve" ~reads:[ "node_charge_density" ]
    ~fresh:[ "node_potential" ] ();
  ignore (solve_field t);
  rank_phase t "ElectricField" (fun _ sim -> Fempic.Fempic_sim.compute_electric_field sim);
  Array.iter (fun sim -> Freshness.mark_fresh sim.Fempic.Fempic_sim.cell_ef) t.sims;
  Opp_plan.Exec.mark_fresh t.plan ~dats:[ "electric_field" ];
  t.step_count <- t.step_count + 1;
  if !Opp_obs.Metrics.enabled then begin
    let counts =
      Array.map (fun sim -> float_of_int sim.Fempic.Fempic_sim.parts.Types.s_size) t.sims
    in
    let live = Array.fold_left ( +. ) 0.0 counts in
    let mx = Array.fold_left Float.max 0.0 counts in
    let mean = live /. float_of_int t.nranks in
    Opp_obs.Metrics.set "particles" live;
    Opp_obs.Metrics.set "imbalance" (if mean > 0.0 then (mx /. mean) -. 1.0 else 0.0)
  end;
  Dist_watch.step_done t.watch ~step:t.step_count
    ~particles:(fun r -> t.sims.(r).Fempic.Fempic_sim.parts.Types.s_size)
    ~capacity:(fun r -> t.sims.(r).Fempic.Fempic_sim.parts.Types.s_capacity)
    ~nonfinite:(fun r ->
      let sim = t.sims.(r) in
      Opp_watch.Canary.nonfinite_dats
        [
          sim.Fempic.Fempic_sim.node_phi;
          sim.Fempic.Fempic_sim.node_charge_den;
          sim.Fempic.Fempic_sim.cell_ef;
        ])
    ~dirty:(fun r ->
      let sim = t.sims.(r) in
      Dist_watch.stale_halo_frac
        [
          sim.Fempic.Fempic_sim.node_charge;
          sim.Fempic.Fempic_sim.node_charge_den;
          sim.Fempic.Fempic_sim.cell_ef;
          sim.Fempic.Fempic_sim.node_phi;
        ])
    ~traffic:t.traffic ();
  Opp_plan.Exec.step_end t.plan;
  Runner.step_end ~step:t.step_count;
  !injected

(** One distributed step. It runs with the monitor's ledger installed
    ({!Dist_watch.run}), so its rank phases feed the heartbeats. *)
let step t = Dist_watch.run t.watch (fun () -> do_step t)

let run t ~steps =
  for _ = 1 to steps do
    ignore (step t)
  done

(* --- aggregated diagnostics --- *)

let total_particles t =
  Array.fold_left (fun acc sim -> acc + sim.Fempic.Fempic_sim.parts.Types.s_size) 0 t.sims

let total_owned_charge t =
  Array.fold_left
    (fun acc sim ->
      let d = Fempic.Fempic_sim.diagnostics sim in
      acc +. d.Fempic.Fempic_sim.total_charge)
    0.0 t.sims

(** Gathered global potential (valid after a step). *)
let potential t = t.g_phi

(** The step-program planner attached at [create ~plan:true], if any. *)
let exec t = t.plan

(** Release the hybrid backend's worker domains, if any. *)
let shutdown t =
  match t.threads with Some th -> Opp_thread.Thread_runner.shutdown th | None -> ()

(** Particle load imbalance across ranks: max/mean - 1. The paper
    notes particle balance (set by the partitioning) drives idle time
    at the move-finalisation synchronisation. *)
let particle_imbalance t =
  let counts =
    Array.map (fun sim -> float_of_int sim.Fempic.Fempic_sim.parts.Types.s_size) t.sims
  in
  let mx = Array.fold_left Float.max 0.0 counts in
  let mean = Array.fold_left ( +. ) 0.0 counts /. float_of_int t.nranks in
  if mean > 0.0 then (mx /. mean) -. 1.0 else 0.0

(** CabanaPIC over the simulated-MPI backend.

    The periodic cuboid is sliced into z-slabs (the two-stream beams
    run along z, so particles cross rank boundaries constantly — the
    multi-hop distributed mover gets exercised hard, as in the paper's
    CabanaPIC scaling runs). Each rank owns a slab plus a one-cell
    halo ring of the full 27-point stencil; the driver exchanges E/B
    halos around the field kernels (the paper's Update_Ghosts) and
    migrates mid-walk particles with their remaining displacement, so
    current deposits land on the rank that owns each crossed cell. *)

open Opp_core
open Opp_dist

type t = {
  mutable nranks : int;
  prm : Cabana.Cabana_params.t;
  mesh : Opp_mesh.Hex_mesh.t;  (** global geometry *)
  mutable cell_rank : int array;
  mutable sims : Cabana.Cabana_sim.t array;
  threads : Opp_thread.Thread_runner.t option;
  mutable tops : Cabana.Cabana_sim.topology array;
  mutable cell_g2l : (int, int) Hashtbl.t array;
  mutable owned : int array;  (** owned cell count per rank *)
  mutable cell_exch : Exch.t;
  mk_sim : Cabana.Cabana_sim.topology -> Cabana.Cabana_sim.t;
      (** rank-sim factory (captures runner/profile/locality), used by
          online recovery to rebuild a rank's sim in place *)
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

(* Build a rank's local topology: owned slab cells first (ascending
   global id), then the halo = every stencil neighbour owned
   elsewhere. *)
let build_topology (prm : Cabana.Cabana_params.t) (mesh : Opp_mesh.Hex_mesh.t) ~cell_rank ~r =
  let ncells_g = mesh.Opp_mesh.Hex_mesh.ncells in
  let owned = ref [] in
  for c = ncells_g - 1 downto 0 do
    if cell_rank.(c) = r then owned := c :: !owned
  done;
  let owned = Array.of_list !owned in
  let halo_set = Hashtbl.create 64 in
  Array.iter
    (fun c ->
      for s = 0 to 26 do
        let nb = mesh.Opp_mesh.Hex_mesh.cell_cell27.((27 * c) + s) in
        if cell_rank.(nb) <> r then Hashtbl.replace halo_set nb ()
      done)
    owned;
  let halo = Array.of_list (List.sort compare (Hashtbl.fold (fun c () l -> c :: l) halo_set [])) in
  let cells_g = Array.append owned halo in
  let g2l = Hashtbl.create (Array.length cells_g) in
  Array.iteri (fun l g -> Hashtbl.replace g2l g l) cells_g;
  let localize stencil arity =
    let out = Array.make (arity * Array.length cells_g) (-1) in
    Array.iteri
      (fun l g ->
        for s = 0 to arity - 1 do
          let nb = stencil.((arity * g) + s) in
          out.((arity * l) + s) <-
            (match Hashtbl.find_opt g2l nb with Some lnb -> lnb | None -> -1)
        done)
      cells_g;
    out
  in
  let dz = Cabana.Cabana_params.dz prm in
  let topology =
    {
      Cabana.Cabana_sim.tp_ncells = Array.length cells_g;
      tp_owned = Array.length owned;
      tp_c2c27 = localize mesh.Opp_mesh.Hex_mesh.cell_cell27 27;
      tp_c2c6 = localize (Opp_mesh.Hex_mesh.face_neighbours mesh) 6;
      tp_cell_gid = cells_g;
      tp_cell_z0 =
        Array.map
          (fun g ->
            let _, _, k = Opp_mesh.Hex_mesh.cell_ijk mesh g in
            float_of_int k *. dz)
          cells_g;
    }
  in
  (topology, g2l)

(* Halo links + guarded exchange over a (topology, g2l) set — used at
   create and again after a shrink re-partition (Exch.create re-runs
   the E070–E072 link validation on the rebuilt world). *)
let build_exch ~nranks ~cell_rank tops_pairs =
  let cell_g2l = Array.map snd tops_pairs in
  let links =
    Array.init nranks (fun r ->
        let tp, _ = tops_pairs.(r) in
        Array.init
          (tp.Cabana.Cabana_sim.tp_ncells - tp.Cabana.Cabana_sim.tp_owned)
          (fun i ->
            let l = tp.Cabana.Cabana_sim.tp_owned + i in
            let g = tp.Cabana.Cabana_sim.tp_cell_gid.(l) in
            let owner = cell_rank.(g) in
            {
              Exch.l_local = l;
              Exch.l_owner_rank = owner;
              Exch.l_owner_index = Hashtbl.find cell_g2l.(owner) g;
            }))
  in
  Exch.create
    ~sizes:(Array.map (fun (tp, _) -> tp.Cabana.Cabana_sim.tp_ncells) tops_pairs)
    ~nranks links

(* Topologies, global->local maps and the halo exchange of one cell
   ownership: built at create and again by every live re-partition. *)
let layout prm mesh ~cell_rank ~nranks =
  let pairs = Array.init nranks (fun r -> build_topology prm mesh ~cell_rank ~r) in
  (Array.map fst pairs, Array.map snd pairs, build_exch ~nranks ~cell_rank pairs)

let create ?(prm = Cabana.Cabana_params.default) ?(nranks = 2) ?workers ?(checked = false)
    ?locality ?(profile = Profile.global) ?(plan = false) ?(plan_verbose = true) () =
  let mesh =
    Opp_mesh.Hex_mesh.build ~nx:prm.Cabana.Cabana_params.nx ~ny:prm.Cabana.Cabana_params.ny
      ~nz:prm.Cabana.Cabana_params.nz ~lx:prm.Cabana.Cabana_params.lx
      ~ly:prm.Cabana.Cabana_params.ly ~lz:prm.Cabana.Cabana_params.lz
  in
  let cell_rank =
    Partition.slab ~nranks ~ncells:mesh.Opp_mesh.Hex_mesh.ncells ~coord:(fun c ->
        mesh.Opp_mesh.Hex_mesh.cell_centroid.((3 * c) + 2))
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
  let tops, cell_g2l, cell_exch = layout prm mesh ~cell_rank ~nranks in
  let mk_sim topology =
    Cabana.Cabana_sim.create ~prm ~runner ~profile ?locality:sched ~topology ()
  in
  {
    nranks;
    prm;
    mesh;
    cell_rank;
    sims = Array.map mk_sim tops;
    threads;
    tops;
    cell_g2l;
    owned = Array.map (fun tp -> tp.Cabana.Cabana_sim.tp_owned) tops;
    cell_exch;
    mk_sim;
    traffic = Traffic.create ();
    profile;
    locality = sched;
    plan =
      (if plan then Some (Opp_plan.Exec.create ~verbose:plan_verbose ~name:"cabana_dist" ())
       else None);
    step_count = 0;
    last_migrated = 0;
    watch = None;
  }

(** Attach a live health monitor; every subsequent {!step} emits
    per-rank heartbeats through it (see [Opp_watch]). *)
let set_watch t mon = t.watch <- Some (Dist_watch.create ~nranks:t.nranks mon)

(** Poison one cell of rank 0's electric field with NaN — the watch
    canary's self-test hook ([--inject-nan]). The leapfrog field
    update keeps (and spreads) the NaN on every subsequent step. *)
let poison t =
  let sim = t.sims.(0) in
  sim.Cabana.Cabana_sim.cell_e.Types.d_data.(0) <- Float.nan

(* [site] keys the planner's elision decisions and must be stable
   across steps (repeat sites carry a "#n" suffix). *)
let exchange_field t ~site ~dat (field : Cabana.Cabana_sim.t -> Types.dat) =
  Opp_plan.Exec.collective t.plan ~site ~kind:`Exchange ~dats:[ dat ] (fun () ->
      Exch.exchange ~traffic:t.traffic
        ~dats:(Array.map (fun sim -> field sim) t.sims)
        t.cell_exch ~dim:3
        ~data:(fun r -> (field t.sims.(r)).Types.d_data))

(* Run every rank's share of a phase, each on its own trace track
   under one phase span (see [Dist_watch.on_rank]). *)
let rank_phase t name f =
  Array.iteri (fun r sim -> Dist_watch.on_rank t.plan r name (fun () -> f r sim)) t.sims

(* --- particle migration (mid-walk, with remaining displacement) --- *)

(* Rank [r]'s sim placed in the world's layout (see [Opp_dist.World]). *)
let view t r (sim : Cabana.Cabana_sim.t) =
  let tp = t.tops.(r) in
  {
    World.state = Cabana.Cabana_ckpt.state sim;
    meshes =
      [
        {
          World.set = sim.Cabana.Cabana_sim.cells;
          gid = tp.Cabana.Cabana_sim.tp_cell_gid;
          owned = tp.Cabana.Cabana_sim.tp_owned;
        };
      ];
    local_cell = Hashtbl.find t.cell_g2l.(r);
  }

let move_deposit t =
  let mail =
    Mailbox.create ~nranks:t.nranks
      ~payload_dim:(World.payload_dim (Cabana.Cabana_ckpt.state t.sims.(0)))
  in
  Array.iter Cabana.Cabana_sim.reset_accumulator t.sims;
  let migrated = ref 0 in
  let move_rank r iterate =
    let v = view t r t.sims.(r) in
    Dist_watch.on_rank t.plan r "MovePhase" (fun () ->
        ignore
          (Cabana.Cabana_sim.move_deposit
             ~should_stop:(fun c -> c >= t.owned.(r))
             ~on_pending:(fun ~p ~cell -> World.pack v mail ~src:r ~owner:t.cell_rank ~p ~cell)
             ~iterate t.sims.(r)))
  in
  for r = 0 to t.nranks - 1 do
    move_rank r Seq.Iterate_all
  done;
  let rounds = ref 0 in
  while Mailbox.total mail > 0 do
    incr rounds;
    if !rounds > 1000 then failwith "Cabana_dist.move_deposit: migration did not settle";
    Array.iter (fun sim -> Opp.reset_injected sim.Cabana.Cabana_sim.parts) t.sims;
    let received = Array.make t.nranks false in
    migrated :=
      !migrated
      + Mailbox.deliver ~traffic:t.traffic mail (fun r batch ->
            received.(r) <- true;
            World.unpack (view t r t.sims.(r)) batch);
    for r = 0 to t.nranks - 1 do
      if received.(r) then move_rank r Seq.Iterate_injected
    done
  done;
  Array.iter (fun sim -> Opp.reset_injected sim.Cabana.Cabana_sim.parts) t.sims;
  t.last_migrated <- !migrated;
  !migrated

(* --- resilience: rank faults and distributed checkpoint/restart --- *)

module Ckpt = Opp_resil.Ckpt

(** Every rank's checkpoint sections — what the heal journal records
    at each step boundary. *)
let sections_all t = Array.map Cabana.Cabana_ckpt.sections t.sims

(** Save a sharded checkpoint of the whole distributed state under
    [dir]: one [Cabana.Cabana_ckpt] shard per rank, the driver's step
    counter on rank 0's shard. Atomic and checksummed. *)
let save_checkpoint ?keep t ~dir =
  let shards = sections_all t in
  shards.(0) <- shards.(0) @ [ Ckpt.Ints ("driver", [| t.step_count |]) ];
  Ckpt.save ?keep ~dir ~step:t.step_count shards

(** Restore the newest valid checkpoint under [dir] into [t] (built
    with the same parameters and rank count). Returns the restored
    step, or [None]. A resumed run continues bit-for-bit. *)
let restore_checkpoint t ~dir =
  match Ckpt.load ~dir with
  | None -> None
  | Some (step, shards) ->
      if Array.length shards <> t.nranks then
        raise (Ckpt.Corrupt "checkpoint rank count mismatch");
      Array.iteri (fun r sections -> Cabana.Cabana_ckpt.restore t.sims.(r) sections) shards;
      t.step_count <- (Ckpt.ints shards.(0) "driver").(0);
      Array.iter (fun sim -> sim.Cabana.Cabana_sim.step_count <- t.step_count) t.sims;
      Some step

(* --- online recovery (opp_heal, docs/RESILIENCE.md) --- *)

(** Respawn recovery: rebuild rank [rank]'s sim in place from its
    reconstructed sections (checkpoint shard + replayed journal
    deltas), then epoch-fence the exchange so stragglers stamped with
    the dead epoch are rejected as stale. Bit-identical continuation:
    crashes fire at the top of a step, before any state mutates. *)
let respawn t ~rank sections =
  if rank < 0 || rank >= t.nranks then invalid_arg "Cabana_dist.respawn: bad rank";
  (* the replaced sim's sets die here: drop their scheduler entries so
     the sort scheduler neither leaks them nor reuses a stale floor *)
  (match t.locality with
  | Some s -> Opp_locality.Sched.forget s t.sims.(rank).Cabana.Cabana_sim.parts
  | None -> ());
  let sim = t.mk_sim t.tops.(rank) in
  t.sims.(rank) <- sim;
  Cabana.Cabana_ckpt.restore sim sections;
  sim.Cabana.Cabana_sim.step_count <- t.step_count;
  Exch.fence t.cell_exch;
  (match t.watch with
  | Some wo -> Opp_watch.Monitor.set_rank_state (Dist_watch.monitor wo) rank "respawned"
  | None -> ())

(* Stencil adjacency and cell centres — what the re-partitioners
   diffuse and re-bisect over. *)
let neighbours t c =
  let seen = Hashtbl.create 32 in
  for s = 0 to 26 do
    let nb = t.mesh.Opp_mesh.Hex_mesh.cell_cell27.((27 * c) + s) in
    if nb <> c then Hashtbl.replace seen nb ()
  done;
  Hashtbl.fold (fun c' () acc -> c' :: acc) seen [] |> List.sort compare

let centroid t c = Array.sub t.mesh.Opp_mesh.Hex_mesh.cell_centroid (3 * c) 3

(* Live re-partition of the running world (see [World.transition]),
   then swap it in place. Every particle set was replaced, so the
   scheduler drops all its entries. *)
let transition t ~new_owner ~dead =
  let world =
    {
      World.build =
        (fun ~cell_rank ~nranks ->
          let tops, cell_g2l, cell_exch = layout t.prm t.mesh ~cell_rank ~nranks in
          let owned = Array.map (fun tp -> tp.Cabana.Cabana_sim.tp_owned) tops in
          { t with nranks; cell_rank; tops; cell_g2l; owned; cell_exch });
      exchanges = (fun l -> [ l.cell_exch ]);
      spawn =
        (fun l r ->
          let sim = t.mk_sim l.tops.(r) in
          sim.Cabana.Cabana_sim.step_count <- t.step_count;
          sim);
      rank = view;
    }
  in
  let l, sims = World.transition world ~traffic:t.traffic ~old:(t, t.sims) ~new_owner ~dead in
  t.cell_rank <- l.cell_rank;
  t.tops <- l.tops;
  t.cell_g2l <- l.cell_g2l;
  t.owned <- l.owned;
  t.cell_exch <- l.cell_exch;
  t.sims <- sims;
  t.nranks <- l.nranks;
  match t.locality with Some s -> Opp_locality.Sched.reset s | None -> ()

(** Shrink recovery: re-bisect the dead rank's slab cells among its
    stencil neighbours, rebuild the world on the compacted rank
    numbering, and deliver the dead rank's reconstructed particles
    through the mailbox delivery-deadline reroute
    ({!World.transition}). Returns the new rank count. Not
    bit-identical to the clean run; validated by conservation and the
    state-hash oracle. *)
let shrink t ~dead dead_sections =
  if t.nranks < 2 then invalid_arg "Cabana_dist.shrink: nothing to shrink onto";
  if dead < 0 || dead >= t.nranks then invalid_arg "Cabana_dist.shrink: bad rank";
  let new_owner =
    Partition.heal_reassign ~nranks:t.nranks ~dead ~cell_rank:t.cell_rank ~centroid:(centroid t)
      ~neighbours:(neighbours t)
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
let cell_particle_weights t = World.cell_counts (Array.mapi (view t) t.sims)

(** Live migration epoch onto the same rank count: weighted diffusive
    re-partition ({!Partition.rebalance}), then the shrink machinery
    with every rank a survivor ({!World.transition}). Pure ownership
    change, so {!state_hash} is bit-identical across the epoch;
    callers must rebase any heal journal. Returns cells moved (0 =
    no-op). *)
let rebalance ?max_move_frac t ~weight =
  if t.nranks < 2 then 0
  else begin
    let new_owner =
      Partition.rebalance ~nranks:t.nranks ~cell_rank:t.cell_rank ~weight ~centroid:(centroid t)
        ~neighbours:(neighbours t) ?max_move_frac ()
    in
    let moved = ref 0 in
    Array.iteri (fun c r -> if new_owner.(c) <> r then incr moved) t.cell_rank;
    if !moved > 0 then transition t ~new_owner ~dead:None;
    !moved
  end

(** Order-canonical hash of the global persistent state — E/B/J by
    global cell plus the particle multiset ({!World.state_hash}). *)
let state_hash t = World.state_hash (Array.mapi (view t) t.sims)

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
    rank_phase t "SortSchedule" (fun _ sim -> Cabana.Cabana_sim.schedule_locality sim);
  (* refresh E and B halos ("Update_Ghosts") before the stencils *)
  exchange_field t ~site:"cell_e.exchange" ~dat:"cell_e" (fun sim ->
      sim.Cabana.Cabana_sim.cell_e);
  exchange_field t ~site:"cell_b.exchange" ~dat:"cell_b" (fun sim ->
      sim.Cabana.Cabana_sim.cell_b);
  rank_phase t "Interpolate" (fun _ sim -> Cabana.Cabana_sim.interpolate sim);
  ignore (move_deposit t);
  rank_phase t "AccumulateCurrent" (fun _ sim -> Cabana.Cabana_sim.accumulate_current sim);
  rank_phase t "AdvanceB" (fun _ sim -> Cabana.Cabana_sim.advance_b sim ~frac:0.5);
  exchange_field t ~site:"cell_b.exchange#1" ~dat:"cell_b" (fun sim ->
      sim.Cabana.Cabana_sim.cell_b);
  rank_phase t "AdvanceE" (fun _ sim -> Cabana.Cabana_sim.advance_e sim);
  exchange_field t ~site:"cell_e.exchange#1" ~dat:"cell_e" (fun sim ->
      sim.Cabana.Cabana_sim.cell_e);
  rank_phase t "AdvanceB2" (fun _ sim -> Cabana.Cabana_sim.advance_b sim ~frac:0.5);
  t.step_count <- t.step_count + 1;
  if !Opp_obs.Metrics.enabled then begin
    let counts =
      Array.map (fun sim -> float_of_int sim.Cabana.Cabana_sim.parts.Types.s_size) t.sims
    in
    let live = Array.fold_left ( +. ) 0.0 counts in
    let mx = Array.fold_left Float.max 0.0 counts in
    let mean = live /. float_of_int t.nranks in
    Opp_obs.Metrics.set "particles" live;
    Opp_obs.Metrics.set "imbalance" (if mean > 0.0 then (mx /. mean) -. 1.0 else 0.0)
  end;
  Dist_watch.step_done t.watch ~step:t.step_count
    ~particles:(fun r -> t.sims.(r).Cabana.Cabana_sim.parts.Types.s_size)
    ~capacity:(fun r -> t.sims.(r).Cabana.Cabana_sim.parts.Types.s_capacity)
    ~nonfinite:(fun r ->
      let sim = t.sims.(r) in
      Opp_watch.Canary.nonfinite_dats
        [
          sim.Cabana.Cabana_sim.cell_e;
          sim.Cabana.Cabana_sim.cell_b;
          sim.Cabana.Cabana_sim.cell_j;
        ])
    ~dirty:(fun r ->
      let sim = t.sims.(r) in
      Dist_watch.stale_halo_frac
        [
          sim.Cabana.Cabana_sim.cell_e;
          sim.Cabana.Cabana_sim.cell_b;
          sim.Cabana.Cabana_sim.cell_j;
        ])
    ~traffic:t.traffic ();
  Opp_plan.Exec.step_end t.plan;
  Runner.step_end ~step:t.step_count

(** One distributed step. It runs with the monitor's ledger installed
    ({!Dist_watch.run}), so its rank phases feed the heartbeats. *)
let step t = Dist_watch.run t.watch (fun () -> do_step t)

let run t ~steps =
  for _ = 1 to steps do
    step t
  done

let energies t =
  Array.fold_left
    (fun (acc : Cabana.Cabana_sim.energies) sim ->
      let e = Cabana.Cabana_sim.energies sim in
      {
        Cabana.Cabana_sim.e_field = acc.Cabana.Cabana_sim.e_field +. e.Cabana.Cabana_sim.e_field;
        b_field = acc.Cabana.Cabana_sim.b_field +. e.Cabana.Cabana_sim.b_field;
        kinetic = acc.Cabana.Cabana_sim.kinetic +. e.Cabana.Cabana_sim.kinetic;
      })
    { Cabana.Cabana_sim.e_field = 0.0; b_field = 0.0; kinetic = 0.0 }
    t.sims

let total_particles t =
  Array.fold_left (fun acc sim -> acc + sim.Cabana.Cabana_sim.parts.Types.s_size) 0 t.sims

(** The step-program planner attached at [create ~plan:true], if any. *)
let exec t = t.plan

(** Release the hybrid backend's worker domains, if any. *)
let shutdown t =
  match t.threads with Some th -> Opp_thread.Thread_runner.shutdown th | None -> ()

(** Particle load imbalance across ranks: max/mean - 1 (two-stream
    bunching concentrates particles in some slabs). *)
let particle_imbalance t =
  let counts =
    Array.map (fun sim -> float_of_int sim.Cabana.Cabana_sim.parts.Types.s_size) t.sims
  in
  let mx = Array.fold_left Float.max 0.0 counts in
  let mean = Array.fold_left ( +. ) 0.0 counts /. float_of_int t.nranks in
  if mean > 0.0 then (mx /. mean) -. 1.0 else 0.0

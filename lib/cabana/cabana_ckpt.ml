(** Checkpoint / restart for CabanaPIC on [Opp_resil.Ckpt], derived
    from the sim's world-state declaration ([Opp_dist.World]) so the
    sequential app and the distributed driver share one snapshot
    schema.

    A shard carries the full field dats (E, B, current, accumulator,
    interpolator — owned and halo cells, so restored halos are fresh),
    the particle SoA (offsets, velocities, remaining displacement,
    weights) with its particle-to-cell map, and the RNG seed. CabanaPIC
    has no {e live} RNG streams — its per-cell splitmix streams are
    drained once at particle load — so the seed is stored for
    validation only: restoring into a sim created with a different seed
    is rejected rather than silently blending two different initial
    conditions. A resumed run continues bit-for-bit. *)

open Opp_core.Types
module World = Opp_dist.World

(** CabanaPIC's world state. E/B/J persist across a re-partition; the
    accumulator and interpolator are rebuilt every step before use, so
    they are checkpointed but not carried. Section names are the dats'
    declared names. *)
let state (sim : Cabana_sim.t) =
  let open Cabana_sim in
  let named = List.map (fun d -> (d.d_name, d)) in
  {
    World.fields = named [ sim.cell_e; sim.cell_b; sim.cell_j ];
    scratch = named [ sim.cell_acc; sim.cell_interp ];
    parts = named [ sim.part_off; sim.part_vel; sim.part_disp; sim.part_w ];
    p2c = sim.p2c;
    meta = [ sim.prm.Cabana_params.seed ];
    extras = [];
  }

(** The section list for one sim (one shard of a distributed
    checkpoint, or the whole snapshot of a sequential one). *)
let sections sim = World.sections (state sim)

(** Restore one sim from its section list (created on the same
    topology, parameters, and seed). Raises [Ckpt.Corrupt] on shape or
    seed mismatches. *)
let restore sim sections = World.restore (state sim) sections

(** Save a sequential sim as a one-shard checkpoint under [dir]. *)
let save ?keep (sim : Cabana_sim.t) ~dir =
  let step = sim.Cabana_sim.step_count in
  Opp_resil.Ckpt.save ?keep ~dir ~step (World.one_shard ~step (state sim))

(** Restore a sequential sim from the newest valid checkpoint under
    [dir]; returns the restored step, or [None]. *)
let load (sim : Cabana_sim.t) ~dir =
  let step = World.load_one ~dir (state sim) in
  Option.iter (fun s -> sim.Cabana_sim.step_count <- s) step;
  step

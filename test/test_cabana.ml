(* Physics tests for CabanaPIC: the shared numerics (interpolation,
   Boris rotation, cell-crossing streamer), conservation laws, vacuum
   electromagnetic waves on the FDTD grid, and the two-stream
   instability itself. *)

open Cabana

let check_float = Alcotest.(check (float 1e-12))

(* --- Cabana_phys unit tests --- *)

let test_stream_stays_inside () =
  let o = [| 0.2; -0.3; 0.0 |] and r = [| 0.3; 0.4; -0.5 |] in
  let trav = Array.make 3 0.0 in
  let face = Cabana_phys.stream o r trav in
  Alcotest.(check int) "no crossing" (-1) face;
  check_float "x" 0.5 o.(0);
  check_float "y" 0.1 o.(1);
  check_float "z" (-0.5) o.(2);
  Array.iter (fun v -> check_float "consumed" 0.0 v) r

let test_stream_crosses_plus_x () =
  let o = [| 0.9; 0.0; 0.0 |] and r = [| 0.4; 0.1; 0.0 |] in
  let trav = Array.make 3 0.0 in
  let face = Cabana_phys.stream o r trav in
  Alcotest.(check int) "+x face" 1 face;
  (* entered the neighbour at its -x side *)
  check_float "re-entry x" (-1.0) o.(0);
  check_float "traversed to the face" 0.1 trav.(0);
  (* a quarter of the displacement remains *)
  Alcotest.(check (float 1e-12)) "remaining x" 0.3 r.(0)

let test_stream_crosses_minus_z_first () =
  (* z reaches its face before x does *)
  let o = [| 0.0; 0.0; -0.9 |] and r = [| 0.5; 0.0; -0.4 |] in
  let trav = Array.make 3 0.0 in
  let face = Cabana_phys.stream o r trav in
  Alcotest.(check int) "-z face" 4 face;
  check_float "re-entry z" 1.0 o.(2)

let prop_stream_conserves_displacement =
  (* summed traversed displacement over a full walk equals the original
     displacement, regardless of how many cells are crossed *)
  QCheck.Test.make ~name:"streamer conserves displacement" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Opp_core.Rng.create seed in
      let u () = (2.0 *. Opp_core.Rng.float rng) -. 1.0 in
      let o = [| u (); u (); u () |] in
      let r = [| 3.0 *. u (); 3.0 *. u (); 3.0 *. u () |] in
      let want = Array.copy r in
      let total = Array.make 3 0.0 in
      let trav = Array.make 3 0.0 in
      let guard = ref 0 in
      let rec walk () =
        incr guard;
        if !guard > 100 then false
        else begin
          let face = Cabana_phys.stream o r trav in
          for d = 0 to 2 do
            total.(d) <- total.(d) +. trav.(d)
          done;
          if face < 0 || Cabana_phys.spent r then true else walk ()
        end
      in
      walk ()
      && Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) total want
      && Array.for_all (fun v -> v >= -1.0 -. 1e-9 && v <= 1.0 +. 1e-9) o)

let prop_boris_preserves_speed_in_pure_b =
  (* with E = 0 the Boris rotation must preserve |v| exactly *)
  QCheck.Test.make ~name:"Boris rotation preserves speed when E=0" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Opp_core.Rng.create seed in
      let u () = (2.0 *. Opp_core.Rng.float rng) -. 1.0 in
      let v = [| u (); u (); u () |] in
      let speed2 = (v.(0) ** 2.0) +. (v.(1) ** 2.0) +. (v.(2) ** 2.0) in
      Cabana_phys.boris ~qmdt2:(u ()) ~ex:0.0 ~ey:0.0 ~ez:0.0 ~bx:(u ()) ~by:(u ()) ~bz:(u ())
        v;
      let speed2' = (v.(0) ** 2.0) +. (v.(1) ** 2.0) +. (v.(2) ** 2.0) in
      Float.abs (speed2 -. speed2') < 1e-12 *. (1.0 +. speed2))

let test_boris_pure_e () =
  (* with B = 0 the push is exactly v += (q/m) E dt *)
  let v = [| 1.0; 2.0; 3.0 |] in
  Cabana_phys.boris ~qmdt2:0.25 ~ex:2.0 ~ey:(-4.0) ~ez:0.0 ~bx:0.0 ~by:0.0 ~bz:0.0 v;
  check_float "vx" 2.0 v.(0);
  check_float "vy" 0.0 v.(1);
  check_float "vz" 3.0 v.(2)

let test_interpolator_uniform_field () =
  (* a uniform field interpolates to itself at any particle position *)
  let e = [| 2.0; -1.0; 0.5 |] and b = [| 0.1; 0.2; 0.3 |] in
  let coeffs = Array.make 18 0.0 in
  Cabana_phys.build_interpolator
    ~get_e:(fun _ c -> e.(c))
    ~get_b:(fun _ c -> b.(c))
    ~set:(fun i v -> coeffs.(i) <- v);
  let ex, ey, ez, bx, by, bz =
    Cabana_phys.eval_fields ~g:(fun i -> coeffs.(i)) ~ox:0.37 ~oy:(-0.81) ~oz:0.12
  in
  check_float "ex" e.(0) ex;
  check_float "ey" e.(1) ey;
  check_float "ez" e.(2) ez;
  check_float "bx" b.(0) bx;
  check_float "by" b.(1) by;
  check_float "bz" b.(2) bz

let test_curls_of_uniform_field_vanish () =
  let ge _ comp = [| 3.0; -2.0; 7.0 |].(comp) in
  let cx, cy, cz = Cabana_phys.curl_e_forward ~ge ~dx:0.1 ~dy:0.2 ~dz:0.3 in
  check_float "curl x" 0.0 cx;
  check_float "curl y" 0.0 cy;
  check_float "curl z" 0.0 cz;
  let cx, cy, cz = Cabana_phys.curl_b_backward ~gb:ge ~dx:0.1 ~dy:0.2 ~dz:0.3 in
  check_float "curl x" 0.0 cx;
  check_float "curl y" 0.0 cy;
  check_float "curl z" 0.0 cz

(* --- simulation-level physics --- *)

let small_prm = { Cabana_params.default with Cabana_params.nz = 16; ppc = 16 }

let test_initial_energies () =
  let sim = Cabana_sim.create ~prm:small_prm ~profile:(Opp_core.Profile.create ()) () in
  let e = Cabana_sim.energies sim in
  check_float "no initial E field" 0.0 e.Cabana_sim.e_field;
  check_float "no initial B field" 0.0 e.Cabana_sim.b_field;
  (* two cold streams at +-v0 with a small perturbation *)
  let expect =
    0.5 *. Cabana_params.n0 *. small_prm.Cabana_params.lx *. small_prm.Cabana_params.ly
    *. small_prm.Cabana_params.lz
    *. (small_prm.Cabana_params.v0 ** 2.0)
  in
  Alcotest.(check bool) "kinetic energy near the cold-stream value" true
    (Float.abs (e.Cabana_sim.kinetic -. expect) < 0.01 *. expect)

let test_particle_count_conserved () =
  let sim = Cabana_sim.create ~prm:small_prm ~profile:(Opp_core.Profile.create ()) () in
  let n0 = sim.Cabana_sim.parts.Opp_core.Types.s_size in
  Cabana_sim.run sim ~steps:50;
  Alcotest.(check int) "periodic box loses nothing" n0 sim.Cabana_sim.parts.Opp_core.Types.s_size

let test_total_energy_conserved () =
  let sim = Cabana_sim.create ~prm:small_prm ~profile:(Opp_core.Profile.create ()) () in
  let total e = e.Cabana_sim.e_field +. e.Cabana_sim.b_field +. e.Cabana_sim.kinetic in
  let e0 = total (Cabana_sim.energies sim) in
  Cabana_sim.run sim ~steps:100;
  let e1 = total (Cabana_sim.energies sim) in
  Alcotest.(check bool)
    (Printf.sprintf "energy drift %.3e within 2%%" (Float.abs (e1 -. e0) /. e0))
    true
    (Float.abs (e1 -. e0) < 0.02 *. e0)

let test_momentum_stays_zero () =
  let sim = Cabana_sim.create ~prm:small_prm ~profile:(Opp_core.Profile.create ()) () in
  let momentum () =
    let p = [| 0.0; 0.0; 0.0 |] in
    for i = 0 to sim.Cabana_sim.parts.Opp_core.Types.s_size - 1 do
      for d = 0 to 2 do
        p.(d) <-
          p.(d)
          +. (sim.Cabana_sim.part_w.Opp_core.Types.d_data.(i)
             *. sim.Cabana_sim.part_vel.Opp_core.Types.d_data.((3 * i) + d))
      done
    done;
    p
  in
  Cabana_sim.run sim ~steps:50;
  let p = momentum () in
  let scale =
    Cabana_params.n0 *. small_prm.Cabana_params.lx *. small_prm.Cabana_params.ly
    *. small_prm.Cabana_params.lz *. small_prm.Cabana_params.v0
  in
  Array.iter
    (fun v ->
      Alcotest.(check bool) "total momentum remains ~0" true (Float.abs v < 0.02 *. scale))
    p

let test_two_stream_instability_grows () =
  (* the point of the setup: field energy must grow out of the noise *)
  let prm = { Cabana_params.default with Cabana_params.nz = 32; ppc = 24 } in
  let sim = Cabana_sim.create ~prm ~profile:(Opp_core.Profile.create ()) () in
  Cabana_sim.run sim ~steps:50;
  let early = (Cabana_sim.energies sim).Cabana_sim.e_field in
  Cabana_sim.run sim ~steps:350;
  let late = (Cabana_sim.energies sim).Cabana_sim.e_field in
  Alcotest.(check bool)
    (Printf.sprintf "E energy grew %.1fx" (late /. early))
    true (late > 5.0 *. early)

let test_vacuum_wave_energy_exchange () =
  (* fields only (no particles): a standing wave sloshes between E and
     B with the total conserved — the leap-frog FDTD core in isolation *)
  let prm = { Cabana_params.default with Cabana_params.nz = 32; ppc = 1 } in
  let sim = Cabana_sim.create ~prm ~profile:(Opp_core.Profile.create ()) () in
  (* drop all particles, then seed Ex = sin(2 pi z / lz) *)
  let parts = sim.Cabana_sim.parts in
  ignore (Opp_core.Particle.remove_flagged parts (Array.make parts.Opp_core.Types.s_size true));
  let mesh = sim.Cabana_sim.mesh in
  for c = 0 to mesh.Opp_mesh.Hex_mesh.ncells - 1 do
    let z = mesh.Opp_mesh.Hex_mesh.cell_centroid.((3 * c) + 2) in
    sim.Cabana_sim.cell_e.Opp_core.Types.d_data.(3 * c) <-
      sin (2.0 *. Float.pi *. z /. prm.Cabana_params.lz)
  done;
  let total e = e.Cabana_sim.e_field +. e.Cabana_sim.b_field in
  let e0 = Cabana_sim.energies sim in
  let t0 = total e0 in
  let min_e = ref e0.Cabana_sim.e_field and max_b = ref 0.0 in
  let max_drift = ref 0.0 in
  for _ = 1 to 100 do
    Cabana_sim.step sim;
    let e = Cabana_sim.energies sim in
    min_e := Float.min !min_e e.Cabana_sim.e_field;
    max_b := Float.max !max_b e.Cabana_sim.b_field;
    max_drift := Float.max !max_drift (Float.abs (total e -. t0))
  done;
  (* the 'drift' is the staggered-time sampling ripple of the
     leap-frog, not secular growth *)
  Alcotest.(check bool)
    (Printf.sprintf "field energy conserved in vacuum (ripple %.2e)" (!max_drift /. t0))
    true
    (!max_drift < 1e-2 *. t0);
  Alcotest.(check bool) "energy sloshes into B" true (!max_b > 0.3 *. t0);
  Alcotest.(check bool) "and out of E" true (!min_e < 0.7 *. t0)

let test_growth_rate_against_dispersion () =
  (* the measured exponential growth rate of the seeded mode against
     the cold-beam dispersion relation. First-order cell-centred
     deposition under-resolves the rate (a known property of this
     discretisation, recorded in EXPERIMENTS.md), so the check is a
     band, not equality *)
  let prm =
    { Cabana_params.default with Cabana_params.nx = 2; ny = 2; nz = 64; ppc = 64; perturb = 1e-3 }
  in
  let sim = Cabana_sim.create ~prm ~profile:(Opp_core.Profile.create ()) () in
  let h = Diagnostics.history ~dt:(Cabana_params.dt prm) in
  for s = 1 to 450 do
    Cabana_sim.step sim;
    Diagnostics.record h ~step:s ~e_field:(Cabana_sim.energies sim).Cabana_sim.e_field
  done;
  let kv = Diagnostics.seeded_kv prm in
  match (Diagnostics.theoretical_growth_rate ~kv, Diagnostics.growth_rate h ~from_step:150 ~to_step:450) with
  | Some theory, Some measured ->
      Alcotest.(check bool)
        (Printf.sprintf "gamma measured %.3f vs theory %.3f (kv=%.2f)" measured theory kv)
        true
        (measured > 0.2 *. theory && measured < 1.5 *. theory)
  | _ -> Alcotest.fail "no growth rate"

let test_stability_threshold () =
  (* dispersion theory: no instability when k v0 > wp for every mode.
     A box short enough that even mode 1 is stable must stay at the
     noise floor *)
  let lz = 1.0 in
  Alcotest.(check bool) "mode 1 is beyond the threshold" true
    (2.0 *. Float.pi /. lz *. 0.2 > 1.0);
  let prm =
    { Cabana_params.default with Cabana_params.nx = 2; ny = 2; nz = 32; lz; ppc = 64 }
  in
  Alcotest.(check bool) "theory says stable" true
    (Diagnostics.theoretical_growth_rate ~kv:(Diagnostics.seeded_kv prm) = None);
  let sim = Cabana_sim.create ~prm ~profile:(Opp_core.Profile.create ()) () in
  Cabana_sim.run sim ~steps:50;
  let early = (Cabana_sim.energies sim).Cabana_sim.e_field in
  Cabana_sim.run sim ~steps:350;
  let late = (Cabana_sim.energies sim).Cabana_sim.e_field in
  Alcotest.(check bool)
    (Printf.sprintf "stays at the noise floor (%.2e -> %.2e)" early late)
    true (late < 3.0 *. early)

let test_dispersion_function_shape () =
  (* gamma(kv): zero outside (0,1), maximal near kv = sqrt(3)/2 *)
  Alcotest.(check bool) "stable above threshold" true
    (Diagnostics.theoretical_growth_rate ~kv:1.2 = None);
  Alcotest.(check bool) "stable at zero" true
    (Diagnostics.theoretical_growth_rate ~kv:0.0 = None);
  let g kv = Option.get (Diagnostics.theoretical_growth_rate ~kv) in
  (* the analytic maximum of the symmetric cold two-stream (total
     plasma frequency normalisation) is gamma = wp/(2 sqrt 2) at
     k v0 = sqrt(3/8) wp *)
  let g_peak = g (sqrt (3.0 /. 8.0)) in
  Alcotest.(check (float 1e-3)) "peak value" (1.0 /. (2.0 *. sqrt 2.0)) g_peak;
  Alcotest.(check bool) "monotone toward the peak" true (g 0.2 < g 0.45 && g 0.45 < g_peak)

let test_single_particle_periodic_transit () =
  (* one particle at constant vz crosses the whole box and returns to
     its starting cell: the periodic c2c6 map in action *)
  let prm = { Cabana_params.default with Cabana_params.nx = 2; ny = 2; nz = 8; ppc = 1 } in
  let sim = Cabana_sim.create ~prm ~profile:(Opp_core.Profile.create ()) () in
  let parts = sim.Cabana_sim.parts in
  ignore (Opp_core.Particle.remove_flagged parts (Array.make parts.Opp_core.Types.s_size true));
  ignore (Opp_core.Particle.inject parts 1);
  Opp_core.Particle.reset_injected parts;
  sim.Cabana_sim.p2c.Opp_core.Types.m_data.(0) <- 0;
  sim.Cabana_sim.part_off.Opp_core.Types.d_data.(2) <- 0.0;
  sim.Cabana_sim.part_vel.Opp_core.Types.d_data.(2) <- 0.3;
  sim.Cabana_sim.part_w.Opp_core.Types.d_data.(0) <- 0.0 (* no self-field *);
  let dz = Cabana_params.dz prm in
  let dt = Cabana_params.dt prm in
  (* steps for one full lap: lz / (v dt) *)
  let steps =
    int_of_float (Float.round (prm.Cabana_params.lz /. (0.3 *. dt))) + 1
  in
  let crossed = ref 0 in
  for _ = 1 to steps do
    Cabana_sim.step sim;
    crossed := !crossed + (match sim.Cabana_sim.last_move with Some r -> r.Opp_core.Seq.mv_total_hops - r.Opp_core.Seq.mv_moved | None -> 0)
  done;
  ignore dz;
  Alcotest.(check bool) "crossed many cells" true (!crossed >= prm.Cabana_params.nz - 1);
  (* still exactly one particle, in a valid cell *)
  Alcotest.(check int) "one particle" 1 parts.Opp_core.Types.s_size;
  let cell = sim.Cabana_sim.p2c.Opp_core.Types.m_data.(0) in
  Alcotest.(check bool) "valid cell" true (cell >= 0 && cell < Cabana_params.ncells prm)

let test_deposit_neutral_current () =
  (* equal and opposite streams at identical positions deposit zero net
     current: seed two mirrored particles in one cell *)
  let prm = { Cabana_params.default with Cabana_params.nx = 2; ny = 2; nz = 4; ppc = 1; perturb = 0.0 } in
  let sim = Cabana_sim.create ~prm ~profile:(Opp_core.Profile.create ()) () in
  let parts = sim.Cabana_sim.parts in
  ignore (Opp_core.Particle.remove_flagged parts (Array.make parts.Opp_core.Types.s_size true));
  ignore (Opp_core.Particle.inject parts 2);
  Opp_core.Particle.reset_injected parts;
  for i = 0 to 1 do
    sim.Cabana_sim.p2c.Opp_core.Types.m_data.(i) <- 0;
    sim.Cabana_sim.part_w.Opp_core.Types.d_data.(i) <- 1.0;
    sim.Cabana_sim.part_vel.Opp_core.Types.d_data.((3 * i) + 2) <-
      (if i = 0 then 0.2 else -0.2)
  done;
  ignore (Cabana_sim.move_deposit sim);
  Cabana_sim.accumulate_current sim;
  let j = sim.Cabana_sim.cell_j.Opp_core.Types.d_data in
  Array.iter (fun v -> Alcotest.(check (float 1e-12)) "net current zero" 0.0 v) j

let suite =
  [
    Alcotest.test_case "stream: stays inside" `Quick test_stream_stays_inside;
    Alcotest.test_case "stream: +x crossing" `Quick test_stream_crosses_plus_x;
    Alcotest.test_case "stream: first crossing wins" `Quick test_stream_crosses_minus_z_first;
    Qc.to_alcotest prop_stream_conserves_displacement;
    Qc.to_alcotest prop_boris_preserves_speed_in_pure_b;
    Alcotest.test_case "boris: pure E" `Quick test_boris_pure_e;
    Alcotest.test_case "interpolator: uniform field" `Quick test_interpolator_uniform_field;
    Alcotest.test_case "curl of uniform field" `Quick test_curls_of_uniform_field_vanish;
    Alcotest.test_case "initial energies" `Quick test_initial_energies;
    Alcotest.test_case "particle count conserved" `Slow test_particle_count_conserved;
    Alcotest.test_case "total energy conserved" `Slow test_total_energy_conserved;
    Alcotest.test_case "momentum stays zero" `Slow test_momentum_stays_zero;
    Alcotest.test_case "two-stream instability grows" `Slow test_two_stream_instability_grows;
    Alcotest.test_case "growth rate vs dispersion" `Slow test_growth_rate_against_dispersion;
    Alcotest.test_case "stability threshold" `Slow test_stability_threshold;
    Alcotest.test_case "dispersion function shape" `Quick test_dispersion_function_shape;
    Alcotest.test_case "vacuum wave E<->B exchange" `Slow test_vacuum_wave_energy_exchange;
    Alcotest.test_case "periodic transit" `Quick test_single_particle_periodic_transit;
    Alcotest.test_case "neutral current deposit" `Quick test_deposit_neutral_current;
  ]

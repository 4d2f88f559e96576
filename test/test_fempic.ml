(* Physics tests for Mini-FEM-PIC: injection bookkeeping, charge
   conservation, the barycentric mover, the nonlinear field solver
   (including a method-of-manufactured-solutions convergence check),
   and end-to-end behaviour of the duct flow. *)

open Fempic
open Opp_core

let mesh () = Opp_mesh.Tet_mesh.build ~nx:4 ~ny:4 ~nz:8 ~lx:4e-5 ~ly:4e-5 ~lz:8e-5
let prm = { Params.default with Params.target_particles = 5_000.0 }

let make ?(prm = prm) ?use_direct_hop () =
  Fempic_sim.create ~prm ~profile:(Profile.create ())
    ~runner:(Runner.seq ~profile:(Profile.create ()) ())
    ?use_direct_hop (mesh ())

let test_injection_rate () =
  let sim = make () in
  let steps = 40 in
  let injected = ref 0 in
  for _ = 1 to steps do
    injected := !injected + Fempic_sim.inject_particles sim
  done;
  (* per-face carry accumulators make the total exact over time *)
  let rate = Array.fold_left ( +. ) 0.0 sim.Fempic_sim.face_rate in
  let expected = rate *. float_of_int steps in
  Alcotest.(check bool)
    (Printf.sprintf "injected %d ~ rate*steps %.1f" !injected expected)
    true
    (Float.abs (float_of_int !injected -. expected)
    < float_of_int (Array.length (mesh ()).Opp_mesh.Tet_mesh.inlet_faces));
  (* every injected particle sits on the inlet plane with +z drift *)
  for p = 0 to sim.Fempic_sim.parts.Types.s_size - 1 do
    let z = sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 2) in
    Alcotest.(check bool) "z near inlet" true (z >= 0.0)
  done

let test_macro_weight_matches_flux () =
  let sim = make () in
  (* spwt * rate = n0 * v * A * dt (physical flux balance) *)
  let area = 4e-5 *. 4e-5 in
  let flux = prm.Params.plasma_den *. prm.Params.ion_velocity *. area *. prm.Params.dt in
  let rate = Array.fold_left ( +. ) 0.0 sim.Fempic_sim.face_rate in
  Alcotest.(check bool) "weight x rate = physical flux" true
    (Float.abs ((sim.Fempic_sim.spwt *. rate) -. flux) < 1e-9 *. flux)

let test_charge_conservation () =
  let sim = make () in
  ignore (Fempic_sim.prefill sim);
  Fempic_sim.calc_pos_vel sim;
  ignore (Fempic_sim.move sim);
  Fempic_sim.deposit_charge sim;
  let total = Array.fold_left ( +. ) 0.0 sim.Fempic_sim.node_charge.Types.d_data in
  let expected =
    float_of_int sim.Fempic_sim.parts.Types.s_size *. sim.Fempic_sim.spwt
    *. prm.Params.ion_charge
  in
  Alcotest.(check bool)
    (Printf.sprintf "deposited %.6e = particles x q %.6e" total expected)
    true
    (Float.abs (total -. expected) < 1e-9 *. expected)

let test_lc_weights_valid () =
  let sim = make () in
  ignore (Fempic_sim.prefill sim);
  Fempic_sim.calc_pos_vel sim;
  ignore (Fempic_sim.move sim);
  for p = 0 to sim.Fempic_sim.parts.Types.s_size - 1 do
    let s = ref 0.0 in
    for i = 0 to 3 do
      let w = sim.Fempic_sim.part_lc.Types.d_data.((4 * p) + i) in
      Alcotest.(check bool) "weight in range" true (w >= -1e-9 && w <= 1.0 +. 1e-9);
      s := !s +. w
    done;
    Alcotest.(check (float 1e-9)) "weights sum to 1" 1.0 !s
  done

let test_prefill_count_and_distribution () =
  let sim = make () in
  let n = Fempic_sim.prefill sim in
  Alcotest.(check bool) "close to target" true
    (Float.abs (float_of_int n -. prm.Params.target_particles)
    < 0.01 *. prm.Params.target_particles);
  (* particles land in the cells they claim: move must keep everyone *)
  let r = Fempic_sim.move sim in
  Alcotest.(check int) "nobody removed by the first locate" 0 r.Seq.mv_removed;
  (* z distribution spans the duct *)
  let zs =
    Array.init sim.Fempic_sim.parts.Types.s_size (fun p ->
        sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 2))
  in
  let mean = Array.fold_left ( +. ) 0.0 zs /. float_of_int (Array.length zs) in
  Alcotest.(check bool) "mean z near the middle" true
    (Float.abs (mean -. 4e-5) < 0.1 *. 8e-5)

let test_ballistic_transit () =
  (* with the field switched off, injected ions drift through in
     lz / (v dt) steps and the population plateaus *)
  let prm0 =
    { prm with Params.plasma_den = 0.0; wall_potential = 0.0; thermal_velocity = 0.0 }
  in
  let sim = make ~prm:prm0 () in
  let transit =
    int_of_float (8e-5 /. (prm0.Params.ion_velocity *. prm0.Params.dt)) + 2
  in
  for _ = 1 to transit do
    ignore (Fempic_sim.step sim)
  done;
  let n_at_transit = sim.Fempic_sim.parts.Types.s_size in
  for _ = 1 to 20 do
    ignore (Fempic_sim.step sim)
  done;
  let n_later = sim.Fempic_sim.parts.Types.s_size in
  Alcotest.(check bool)
    (Printf.sprintf "population plateaus (%d then %d)" n_at_transit n_later)
    true
    (abs (n_later - n_at_transit) < n_at_transit / 10);
  Alcotest.(check bool) "population near the steady-state target" true
    (Float.abs (float_of_int n_later -. prm0.Params.target_particles)
    < 0.15 *. prm0.Params.target_particles)

let test_dh_equals_mh () =
  (* direct-hop is an optimization, not a different algorithm: both
     movers must place every particle in the same cell *)
  let a = make ~use_direct_hop:false () in
  let b = make ~use_direct_hop:true () in
  ignore (Fempic_sim.prefill a);
  ignore (Fempic_sim.prefill b);
  for _ = 1 to 5 do
    ignore (Fempic_sim.step a);
    ignore (Fempic_sim.step b)
  done;
  Alcotest.(check int) "same particle count" a.Fempic_sim.parts.Types.s_size
    b.Fempic_sim.parts.Types.s_size;
  for p = 0 to a.Fempic_sim.parts.Types.s_size - 1 do
    Alcotest.(check int) "same cell" a.Fempic_sim.p2c.Types.m_data.(p)
      b.Fempic_sim.p2c.Types.m_data.(p)
  done

(* Golden bits of a whole run: an FNV-1a hash over the IEEE bits of
   particle position, velocity and barycentric weights, the particle's
   cell, the potential and the cell field after 10 sequential steps of
   a prefilled [fempic_small_prm] duct. The constants were measured on
   the View.get/View.inc form of the kernels; any rewrite of a kernel
   or a loop engine must reproduce them bit for bit. *)
let state_bits_hash (sim : Fempic_sim.t) =
  let h = ref 0xcbf29ce484222325L in
  let mix64 x =
    for k = 0 to 7 do
      let byte = Int64.logand (Int64.shift_right_logical x (8 * k)) 0xffL in
      h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
    done
  in
  let floats (d : Types.dat) n =
    for i = 0 to (n * d.Types.d_dim) - 1 do
      mix64 (Int64.bits_of_float d.Types.d_data.(i))
    done
  in
  let np = sim.Fempic_sim.parts.Types.s_size in
  mix64 (Int64.of_int np);
  floats sim.Fempic_sim.part_pos np;
  floats sim.Fempic_sim.part_vel np;
  floats sim.Fempic_sim.part_lc np;
  for p = 0 to np - 1 do
    mix64 (Int64.of_int sim.Fempic_sim.p2c.Types.m_data.(p))
  done;
  floats sim.Fempic_sim.node_phi sim.Fempic_sim.nodes.Types.s_size;
  floats sim.Fempic_sim.cell_ef sim.Fempic_sim.cells.Types.s_size;
  Printf.sprintf "0x%016Lx" !h

let test_golden_bits ~use_direct_hop ~hash () =
  let sim = make ~prm:Experiments.Config.fempic_small_prm ~use_direct_hop () in
  ignore (Fempic_sim.prefill sim);
  for _ = 1 to 10 do
    ignore (Fempic_sim.step sim)
  done;
  Alcotest.(check string) "state bits" hash (state_bits_hash sim)

(* The particle hot path allocates nothing per particle: CalcPosVel,
   Move and DepositCharge on a prefilled ~20k-particle duct stay under
   2 minor words a particle (a boxed float is 2 words, a closure 3 or
   more). One untimed round first, so one-off growth is not counted. *)
let test_hot_path_allocation () =
  let sim = make ~prm:{ prm with Params.target_particles = 20_000.0 } () in
  let n = Fempic_sim.prefill sim in
  let round () =
    Fempic_sim.calc_pos_vel sim;
    ignore (Fempic_sim.move sim);
    Fempic_sim.deposit_charge sim
  in
  round ();
  let w0 = Gc.minor_words () in
  round ();
  let per_particle = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per particle (%d particles) <= 2" per_particle n)
    true (per_particle <= 2.0)

(* The mover's exit face, over every weight vector from {-2,-1,0,1}^4
   (ties on purpose): inside when all four weights are >= -1e-12,
   otherwise the face of least weight, the lower face on a tie, as a
   running minimum with a strict [<] picks it. *)
let test_move_kernel_exit_face () =
  let vals = [| -2.0; -1.0; 0.0; 1.0 |] in
  let pos = View.of_array [| 0.0; 0.0; 0.0 |] 3 and lc = View.of_array (Array.make 4 0.0) 4 in
  let det = View.of_array (Array.make 16 0.0) 16 in
  let c2c_data = [| 10; 11; 12; 13 |] in
  for code = 0 to 255 do
    (* at the origin weight i is det's constant term i*4 *)
    let l = Array.init 4 (fun i -> vals.((code lsr (2 * i)) land 3)) in
    Array.iteri (fun i w -> det.View.data.(i * 4) <- w) l;
    let mc = { Seq.cell = 0; status = Seq.Need_move; hop = 0 } in
    Fempic_sim.move_kernel ~c2c_data [| pos; lc; det |] mc;
    let what = Printf.sprintf "weights %g %g %g %g" l.(0) l.(1) l.(2) l.(3) in
    if Array.for_all (fun w -> w >= -1e-12) l then begin
      Alcotest.(check bool) (what ^ ": done") true (mc.Seq.status = Seq.Move_done);
      Alcotest.(check (array (float 0.0))) (what ^ ": weights stored") l lc.View.data
    end
    else begin
      let j = ref 0 in
      for i = 1 to 3 do
        if l.(i) < l.(!j) then j := i
      done;
      Alcotest.(check bool) (what ^ ": hops") true (mc.Seq.status = Seq.Need_move);
      Alcotest.(check int) (what ^ ": exit face") c2c_data.(!j) mc.Seq.cell
    end
  done

let test_electric_field_of_linear_potential () =
  let sim = make () in
  (* phi = a . x  =>  E = -a on every cell *)
  let a = [| 3.0e4; -2.0e4; 5.0e4 |] in
  let m = sim.Fempic_sim.mesh in
  for n = 0 to m.Opp_mesh.Tet_mesh.nnodes - 1 do
    sim.Fempic_sim.node_phi.Types.d_data.(n) <-
      (a.(0) *. m.Opp_mesh.Tet_mesh.node_pos.(3 * n))
      +. (a.(1) *. m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 1))
      +. (a.(2) *. m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 2))
  done;
  Fempic_sim.compute_electric_field sim;
  for c = 0 to m.Opp_mesh.Tet_mesh.ncells - 1 do
    for d = 0 to 2 do
      Alcotest.(check bool) "E = -grad phi" true
        (Float.abs (sim.Fempic_sim.cell_ef.Types.d_data.((3 * c) + d) +. a.(d))
        < 1e-6 *. Float.abs a.(d))
    done
  done

let test_solver_vacuum_max_principle () =
  (* no charge at all: the potential solves Laplace and must lie
     between the boundary values *)
  let prm0 = { prm with Params.plasma_den = 0.0; wall_potential = 5.0 } in
  let sim = make ~prm:prm0 () in
  let stats = Fempic_sim.solve_potential sim in
  Alcotest.(check bool) "converged" true stats.Field_solver.converged;
  Array.iter
    (fun v -> Alcotest.(check bool) "0 <= phi <= 5" true (v >= -1e-9 && v <= 5.0 +. 1e-9))
    sim.Fempic_sim.node_phi.Types.d_data

let test_solver_manufactured_solution () =
  (* MMS: phi0 = sin(pi x/lx) sin(pi y/ly) cos(pi z/lz) satisfies the
     wall/inlet Dirichlet data we impose and has zero normal derivative
     at the open outlet; solving with rho0 = -eps0 lap phi0 recovers
     phi0 to discretization accuracy *)
  let lx = 4e-5 and ly = 4e-5 and lz = 8e-5 in
  let m = Opp_mesh.Tet_mesh.build ~nx:6 ~ny:6 ~nz:12 ~lx ~ly ~lz in
  let phi_star x y z =
    sin (Float.pi *. x /. lx) *. sin (Float.pi *. y /. ly) *. cos (Float.pi *. z /. lz)
  in
  let k2 =
    ((Float.pi /. lx) ** 2.0) +. ((Float.pi /. ly) ** 2.0) +. ((Float.pi /. lz) ** 2.0)
  in
  let nnodes = m.Opp_mesh.Tet_mesh.nnodes in
  let active = Array.make nnodes true in
  let phi = Array.make nnodes 0.0 in
  let rho = Array.make nnodes 0.0 in
  Array.iteri
    (fun n kind ->
      let x = m.Opp_mesh.Tet_mesh.node_pos.(3 * n)
      and y = m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 1)
      and z = m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 2) in
      rho.(n) <- Params.eps0 *. k2 *. phi_star x y z;
      match kind with
      | Opp_mesh.Tet_mesh.Wall | Opp_mesh.Tet_mesh.Inlet ->
          active.(n) <- false;
          phi.(n) <- phi_star x y z (* = 0 on these planes, kept exact *)
      | Opp_mesh.Tet_mesh.Outlet | Opp_mesh.Tet_mesh.Interior -> ())
    m.Opp_mesh.Tet_mesh.node_kind;
  (* plasma_den = 0 switches the Boltzmann term off: one linear solve *)
  let solver =
    Field_solver.create ~nnodes ~ncells:m.Opp_mesh.Tet_mesh.ncells
      ~cell_nodes:m.Opp_mesh.Tet_mesh.cell_nodes ~cell_bary:m.Opp_mesh.Tet_mesh.cell_bary
      ~cell_volume:m.Opp_mesh.Tet_mesh.cell_volume ~node_volume:m.Opp_mesh.Tet_mesh.node_volume
      ~active
      ~comm:(Field_solver.comm_seq ~nnodes)
      { prm with Params.plasma_den = 0.0 }
  in
  let stats = Field_solver.solve solver ~phi ~ion_charge_density:rho in
  Alcotest.(check bool) "converged" true stats.Field_solver.converged;
  let max_err = ref 0.0 in
  for n = 0 to nnodes - 1 do
    let x = m.Opp_mesh.Tet_mesh.node_pos.(3 * n)
    and y = m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 1)
    and z = m.Opp_mesh.Tet_mesh.node_pos.((3 * n) + 2) in
    max_err := Float.max !max_err (Float.abs (phi.(n) -. phi_star x y z))
  done;
  (* linear elements on this resolution: a few percent of the unit
     amplitude *)
  Alcotest.(check bool) (Printf.sprintf "MMS max error %.4f" !max_err) true (!max_err < 0.08)

let test_boltzmann_electron_response () =
  (* the Boltzmann closure sets phi ~ kTe ln(n_i/n0): an under-dense
     duct (still filling) pulls the interior potential well below zero,
     while the flux-matched prefilled duct is quasi-neutral (n_i = n0
     by construction of the macro weight), so phi ~ 0 there *)
  (* needs a cross-section wider than a few Debye lengths for the
     interior to decouple from the wall potential *)
  let wide = Opp_mesh.Tet_mesh.build ~nx:6 ~ny:6 ~nz:12 ~lx:6e-5 ~ly:6e-5 ~lz:1.2e-4 in
  let underdense =
    Fempic_sim.create
      ~prm:{ prm with Params.target_particles = 20_000.0 }
      ~profile:(Profile.create ())
      ~runner:(Runner.seq ~profile:(Profile.create ()) ())
      wide
  in
  for _ = 1 to 10 do
    ignore (Fempic_sim.step underdense)
  done;
  let d = Fempic_sim.diagnostics underdense in
  Alcotest.(check bool)
    (Printf.sprintf "under-dense interior negative (%.3f)" d.Fempic_sim.min_potential)
    true
    (d.Fempic_sim.min_potential < -0.2);
  Alcotest.(check bool) "bounded by the wall value" true
    (d.Fempic_sim.max_potential <= prm.Params.wall_potential +. 1e-9);
  let neutral = make () in
  ignore (Fempic_sim.prefill neutral);
  for _ = 1 to 5 do
    ignore (Fempic_sim.step neutral)
  done;
  let d = Fempic_sim.diagnostics neutral in
  Alcotest.(check bool)
    (Printf.sprintf "prefilled duct quasi-neutral (%.3f)" d.Fempic_sim.min_potential)
    true
    (Float.abs d.Fempic_sim.min_potential < 1.0)

let test_steady_state_population () =
  let sim = make () in
  ignore (Fempic_sim.prefill sim);
  Fempic_sim.run sim ~steps:60;
  let n = float_of_int sim.Fempic_sim.parts.Types.s_size in
  Alcotest.(check bool)
    (Printf.sprintf "population %.0f near target %.0f" n prm.Params.target_particles)
    true
    (Float.abs (n -. prm.Params.target_particles) < 0.25 *. prm.Params.target_particles)

(* --- Monte-Carlo collisions --- *)

let test_collisions_frequency () =
  (* collision counts over many steps match the null-collision
     probability for a mono-speed population *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"c" 1 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let vel = Opp.decl_dat ctx ~name:"v" ~set:parts ~dim:3 None in
  let mcc =
    Collisions.create ~neutral_density:1e19 ~sigma_cx:1e-18 ~sigma_el:0.0 ~dt:2e-10 ~parts
      ~part_vel:vel ~seed:5 ()
  in
  let n = 20_000 in
  ignore (Opp.inject parts n);
  for p = 0 to n - 1 do
    vel.Types.d_data.((3 * p) + 2) <- 7000.0
  done;
  let cx, el, _ = Collisions.apply mcc in
  let expect = float_of_int n *. Collisions.expected_probability mcc ~v:7000.0 in
  Alcotest.(check int) "no elastic channel" 0 el;
  Alcotest.(check bool)
    (Printf.sprintf "cx count %d ~ expectation %.0f" cx expect)
    true
    (Float.abs (float_of_int cx -. expect) < 5.0 *. sqrt expect)

let test_collisions_elastic_preserves_speed () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"c" 1 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let vel = Opp.decl_dat ctx ~name:"v" ~set:parts ~dim:3 None in
  (* elastic only, cranked so ~80% of particles scatter per step *)
  let mcc =
    Collisions.create ~neutral_density:8e23 ~sigma_cx:0.0 ~sigma_el:1e-18 ~dt:2e-10 ~parts
      ~part_vel:vel ~seed:6 ()
  in
  let n = 1000 in
  ignore (Opp.inject parts n);
  for p = 0 to n - 1 do
    vel.Types.d_data.((3 * p) + 2) <- 5000.0
  done;
  let _, el, _ = Collisions.apply mcc in
  Alcotest.(check bool) "most scattered" true (el > n / 2);
  for p = 0 to n - 1 do
    let speed =
      sqrt
        (Array.fold_left
           (fun acc d -> acc +. (vel.Types.d_data.((3 * p) + d) ** 2.0))
           0.0 [| 0; 1; 2 |])
    in
    Alcotest.(check (float 1e-6)) "speed preserved" 5000.0 speed
  done

let test_collisions_thermalize_drift () =
  (* charge exchange replaces beam ions by thermal ones: the mean
     drift must decay toward zero over many collisional steps *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"c" 1 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let vel = Opp.decl_dat ctx ~name:"v" ~set:parts ~dim:3 None in
  (* ~1.4% charge-exchange probability per step: a few mean free
     times over the 200 steps below *)
  let mcc =
    Collisions.create ~neutral_density:5e22 ~sigma_cx:1e-18 ~sigma_el:0.0
      ~neutral_temperature:200.0 ~dt:2e-10 ~parts ~part_vel:vel ~seed:7 ()
  in
  let n = 5000 in
  ignore (Opp.inject parts n);
  for p = 0 to n - 1 do
    vel.Types.d_data.((3 * p) + 2) <- 7000.0
  done;
  let mean_vz () =
    let s = ref 0.0 in
    for p = 0 to n - 1 do
      s := !s +. vel.Types.d_data.((3 * p) + 2)
    done;
    !s /. float_of_int n
  in
  let v0 = mean_vz () in
  for _ = 1 to 200 do
    ignore (Collisions.apply mcc)
  done;
  let v1 = mean_vz () in
  Alcotest.(check bool)
    (Printf.sprintf "drift decayed %.0f -> %.0f" v0 v1)
    true (v1 < 0.5 *. v0)

let test_collisions_ionization_creates_particles () =
  (* ionization appends a slow ion at the parent's position and cell,
     via the flag-then-append pattern (no injection mid-loop) *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"c" 4 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let vel = Opp.decl_dat ctx ~name:"v" ~set:parts ~dim:3 None in
  let pos = Opp.decl_dat ctx ~name:"x" ~set:parts ~dim:3 None in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
  let mcc =
    (* ionization probability ~0.7 per step *)
    Collisions.create ~neutral_density:5e24 ~sigma_cx:0.0 ~sigma_el:0.0 ~sigma_ion:1e-18
      ~neutral_temperature:100.0 ~part_pos:pos ~p2c ~dt:2e-10 ~parts ~part_vel:vel ~seed:9 ()
  in
  let n = 1000 in
  ignore (Opp.inject parts n);
  Opp.reset_injected parts;
  for p = 0 to n - 1 do
    vel.Types.d_data.((3 * p) + 2) <- 700.0;
    pos.Types.d_data.(3 * p) <- float_of_int (p mod 7);
    p2c.Types.m_data.(p) <- p mod 4
  done;
  let _, _, ion = Collisions.apply mcc in
  Alcotest.(check bool) (Printf.sprintf "many ionizations (%d)" ion) true (ion > n / 2);
  Alcotest.(check int) "population grew" (n + ion) parts.Types.s_size;
  (* offspring inherit position and cell, with thermal speeds *)
  for child = n to parts.Types.s_size - 1 do
    let speed =
      sqrt
        (Array.fold_left
           (fun acc d -> acc +. (vel.Types.d_data.((3 * child) + d) ** 2.0))
           0.0 [| 0; 1; 2 |])
    in
    Alcotest.(check bool) "thermal offspring" true (speed < 700.0);
    Alcotest.(check bool) "valid cell" true
      (p2c.Types.m_data.(child) >= 0 && p2c.Types.m_data.(child) < 4)
  done;
  (* parent-position inheritance: every child's x coordinate is one of
     the parent lattice values *)
  for child = n to parts.Types.s_size - 1 do
    let x = pos.Types.d_data.(3 * child) in
    Alcotest.(check bool) "x inherited" true (Float.abs (x -. Float.round x) < 1e-12 && x < 7.0)
  done

let test_collisions_zero_density_noop () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"c" 1 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let vel = Opp.decl_dat ctx ~name:"v" ~set:parts ~dim:3 None in
  let mcc = Collisions.create ~neutral_density:0.0 ~dt:2e-10 ~parts ~part_vel:vel ~seed:8 () in
  ignore (Opp.inject parts 100);
  for p = 0 to 99 do
    vel.Types.d_data.((3 * p) + 2) <- 7000.0
  done;
  let cx, el, ion = Collisions.apply mcc in
  Alcotest.(check int) "no cx" 0 cx;
  Alcotest.(check int) "no ionization" 0 ion;
  Alcotest.(check int) "no elastic" 0 el;
  for p = 0 to 99 do
    Alcotest.(check (float 0.0)) "velocity untouched" 7000.0 vel.Types.d_data.((3 * p) + 2)
  done

(* --- checkpoint / restart (a one-rank world on Opp_resil.Ckpt) --- *)

let save_ckpt (sim : Fempic_sim.t) ~dir =
  let step = sim.Fempic_sim.step_count in
  Opp_resil.Ckpt.save ~dir ~step
    (Opp_dist.World.one_shard ~step (Apps_dist.Fempic_dist.state sim))

let load_ckpt (sim : Fempic_sim.t) ~dir =
  let step = Opp_dist.World.load_one ~dir (Apps_dist.Fempic_dist.state sim) in
  Option.iter (fun s -> sim.Fempic_sim.step_count <- s) step;
  step

let test_checkpoint_exact_resume () =
  (* 10 steps + checkpoint + 10 steps must equal load + 10 steps,
     bit for bit (fields, particles, injection RNG state) *)
  Tmp_dir.with_dir "oppic_ckpt" (fun dir ->
      let a = make () in
      Fempic_sim.run a ~steps:10;
      save_ckpt a ~dir;
      Fempic_sim.run a ~steps:10;
      let b = make () in
      Alcotest.(check (option int)) "restored step" (Some 10) (load_ckpt b ~dir);
      Fempic_sim.run b ~steps:10;
      Alcotest.(check int) "same particle count" a.Fempic_sim.parts.Types.s_size
        b.Fempic_sim.parts.Types.s_size;
      Array.iteri
        (fun n v ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "phi bitwise at %d" n)
            v
            b.Fempic_sim.node_phi.Types.d_data.(n))
        a.Fempic_sim.node_phi.Types.d_data;
      for p = 0 to (3 * a.Fempic_sim.parts.Types.s_size) - 1 do
        Alcotest.(check (float 0.0)) "positions bitwise" a.Fempic_sim.part_pos.Types.d_data.(p)
          b.Fempic_sim.part_pos.Types.d_data.(p)
      done)

let test_checkpoint_rejects_garbage () =
  Tmp_dir.with_dir "oppic_ckpt" (fun dir ->
      (* a checkpoint directory whose shard and manifest are garbage:
         checksum verification refuses it, nothing is restored *)
      let ck = Filename.concat dir "ckpt-00000010" in
      Sys.mkdir ck 0o755;
      List.iter
        (fun f ->
          Out_channel.with_open_bin (Filename.concat ck f) (fun oc ->
              output_string oc "not a checkpoint at all"))
        [ "MANIFEST"; "shard-0000.bin" ];
      let sim = make () in
      Alcotest.(check (option int)) "garbage rejected" None (load_ckpt sim ~dir);
      Alcotest.(check int) "sim untouched" 0 sim.Fempic_sim.step_count)

let test_checkpoint_rejects_wrong_mesh () =
  Tmp_dir.with_dir "oppic_ckpt" (fun dir ->
      let a = make () in
      Fempic_sim.run a ~steps:3;
      save_ckpt a ~dir;
      let other_mesh = Opp_mesh.Tet_mesh.build ~nx:3 ~ny:3 ~nz:6 ~lx:3e-5 ~ly:3e-5 ~lz:6e-5 in
      let b =
        Fempic_sim.create ~prm ~profile:(Profile.create ())
          ~runner:(Runner.seq ~profile:(Profile.create ()) ())
          other_mesh
      in
      Alcotest.(check bool) "mesh mismatch rejected" true
        (try
           ignore (load_ckpt b ~dir);
           false
         with Opp_resil.Ckpt.Corrupt _ -> true))

let prop_sample_tet_inside =
  (* the uniform tetrahedron sampler must stay inside (barycentric
     coordinates all nonnegative) *)
  QCheck.Test.make ~name:"tet sampler stays inside" ~count:200 QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let v0 = [| 0.0; 0.0; 0.0 |] and v1 = [| 1.0; 0.0; 0.0 |] in
      let v2 = [| 0.0; 1.0; 0.0 |] and v3 = [| 0.0; 0.0; 1.0 |] in
      let p = Opp_mesh.Geom.sample_tet rng v0 v1 v2 v3 in
      p.(0) >= 0.0 && p.(1) >= 0.0 && p.(2) >= 0.0 && p.(0) +. p.(1) +. p.(2) <= 1.0 +. 1e-12)

let prop_move_finds_containing_cell =
  (* from ANY starting cell, the barycentric walk must settle on a cell
     that actually contains the particle (the duct is convex, so the
     walk cannot get stuck) *)
  QCheck.Test.make ~name:"mover settles on the containing cell" ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = mesh () in
      let sim =
        Fempic_sim.create ~prm ~profile:(Profile.create ())
          ~runner:(Runner.seq ~profile:(Profile.create ()) ())
          m
      in
      ignore (Opp.inject sim.Fempic_sim.parts 8);
      Opp.reset_injected sim.Fempic_sim.parts;
      for p = 0 to 7 do
        (* random interior position, random (likely wrong) start cell *)
        sim.Fempic_sim.part_pos.Types.d_data.(3 * p) <- Rng.float rng *. 3.99e-5;
        sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 1) <- Rng.float rng *. 3.99e-5;
        sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 2) <- Rng.float rng *. 7.99e-5;
        sim.Fempic_sim.p2c.Types.m_data.(p) <- Rng.int rng m.Opp_mesh.Tet_mesh.ncells
      done;
      let r = Fempic_sim.move sim in
      let lc = Array.make 4 0.0 in
      r.Seq.mv_removed = 0
      && (let ok = ref true in
          for p = 0 to 7 do
            let c = sim.Fempic_sim.p2c.Types.m_data.(p) in
            Opp_mesh.Geom.barycentric m.Opp_mesh.Tet_mesh.cell_bary ~off:(16 * c)
              ~x:sim.Fempic_sim.part_pos.Types.d_data.(3 * p)
              ~y:sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 1)
              ~z:sim.Fempic_sim.part_pos.Types.d_data.((3 * p) + 2)
              lc;
            if not (Opp_mesh.Geom.inside ~eps:1e-9 lc) then ok := false
          done;
          !ok))

(* --- Field-solver oracle: an independent, unfused copy of the
   Newton--Jacobi-CG the solver implements, over a stiffness matrix
   built from a triplet list with [Csr.of_triplets]. The solver must
   reproduce it bit for bit. *)

let oracle_stiffness (m : Opp_mesh.Tet_mesh.t) =
  let trip = ref [] in
  for c = 0 to m.Opp_mesh.Tet_mesh.ncells - 1 do
    let b = m.Opp_mesh.Tet_mesh.cell_bary and nodes = m.Opp_mesh.Tet_mesh.cell_nodes in
    for i = 0 to 3 do
      for j = 0 to 3 do
        let gg = ref 0.0 in
        for d = 1 to 3 do
          gg := !gg +. (b.((16 * c) + (4 * i) + d) *. b.((16 * c) + (4 * j) + d))
        done;
        trip :=
          (nodes.((4 * c) + i), nodes.((4 * c) + j), m.Opp_mesh.Tet_mesh.cell_volume.(c) *. !gg)
          :: !trip
      done
    done
  done;
  Opp_la.Csr.of_triplets m.Opp_mesh.Tet_mesh.nnodes !trip

let oracle_solve (p : Params.t) k ~vol ~active ~phi ~den =
  let n = Array.length phi in
  let dot x y =
    let s = ref 0.0 in
    for i = 0 to n - 1 do
      s := !s +. (x.(i) *. y.(i))
    done;
    !s
  in
  let mask x = Array.iteri (fun i a -> if not a then x.(i) <- 0.0) active in
  let f = Array.make n 0.0 and jd = Array.make n 0.0 and kphi = Array.make n 0.0 in
  let cg () =
    let x = Array.make n 0.0 in
    let r = Array.map (fun v -> -.v) f in
    mask r;
    let inv =
      Array.init n (fun i ->
          let d = (Params.eps0 *. Opp_la.Csr.get k i i) +. jd.(i) in
          if Float.abs d > 0.0 then 1.0 /. d else 1.0)
    in
    let z = Array.init n (fun i -> inv.(i) *. r.(i)) in
    mask z;
    let pv = Array.copy z and jp = Array.make n 0.0 in
    let rz = ref (dot r z) and res = ref (sqrt (dot r r)) in
    let tol = Float.max (p.Params.cg_rtol *. !res) 1e-300 in
    let iters = ref 0 and max_iter = 20 * n in
    while !res > tol && !iters < max_iter do
      Opp_la.Csr.spmv k pv jp;
      for i = 0 to n - 1 do
        jp.(i) <- (Params.eps0 *. jp.(i)) +. (jd.(i) *. pv.(i))
      done;
      mask jp;
      let pjp = dot pv jp in
      if pjp <= 0.0 then iters := max_iter
      else begin
        let alpha = !rz /. pjp in
        for i = 0 to n - 1 do
          x.(i) <- x.(i) +. (alpha *. pv.(i))
        done;
        for i = 0 to n - 1 do
          r.(i) <- r.(i) +. (-.alpha *. jp.(i))
        done;
        for i = 0 to n - 1 do
          z.(i) <- inv.(i) *. r.(i)
        done;
        mask z;
        let rz' = dot r z in
        let beta = rz' /. !rz in
        rz := rz';
        for i = 0 to n - 1 do
          pv.(i) <- z.(i) +. (beta *. pv.(i))
        done;
        res := sqrt (dot r r);
        incr iters
      end
    done;
    (x, !iters)
  in
  let newton = ref 0 and cg_total = ref 0 and fnorm = ref infinity and first = ref 0.0 in
  let converged = ref false in
  while (not !converged) && !newton < p.Params.max_newton do
    Opp_la.Csr.spmv k phi kphi;
    for i = 0 to n - 1 do
      if active.(i) then begin
        let arg = Float.min ((phi.(i) -. p.Params.phi0) /. p.Params.kte) 25.0 in
        let ne = p.Params.plasma_den *. exp arg in
        f.(i) <- (Params.eps0 *. kphi.(i)) -. ((den.(i) -. (Params.qe *. ne)) *. vol.(i));
        jd.(i) <- Params.qe *. ne /. p.Params.kte *. vol.(i)
      end
      else begin
        f.(i) <- 0.0;
        jd.(i) <- 0.0
      end
    done;
    fnorm := sqrt (dot f f);
    if !newton = 0 then first := !fnorm;
    let charge_scale = Params.qe *. Float.max p.Params.plasma_den 1.0 *. sqrt (dot vol vol) in
    if !fnorm <= p.Params.newton_tol *. Float.max charge_scale !first then converged := true
    else begin
      let dphi, it = cg () in
      cg_total := !cg_total + it;
      Array.iteri (fun i a -> if a then phi.(i) <- phi.(i) +. dphi.(i)) active;
      incr newton
    end
  done;
  {
    Field_solver.newton_iterations = !newton;
    cg_iterations = !cg_total;
    residual = !fnorm;
    converged = !converged;
  }

let test_solver_matches_oracle () =
  let prm = Experiments.Config.fempic_small_prm in
  let sim = make ~prm () in
  let m = sim.Fempic_sim.mesh in
  let k = oracle_stiffness m in
  let active =
    Array.map
      (function
        | Opp_mesh.Tet_mesh.Inlet | Opp_mesh.Tet_mesh.Wall -> false
        | Opp_mesh.Tet_mesh.Outlet | Opp_mesh.Tet_mesh.Interior -> true)
      m.Opp_mesh.Tet_mesh.node_kind
  in
  let bits = Int64.bits_of_float in
  let cg_seen = ref 0 in
  for step = 1 to 10 do
    let phi = Array.copy sim.Fempic_sim.node_phi.Types.d_data in
    ignore (Fempic_sim.step sim);
    (* the step's solve reads the density the step just deposited,
       which nothing after the solve rewrites *)
    let want =
      oracle_solve prm k ~vol:m.Opp_mesh.Tet_mesh.node_volume ~active ~phi
        ~den:sim.Fempic_sim.node_charge_den.Types.d_data
    in
    let got = Option.get sim.Fempic_sim.last_solver_stats in
    cg_seen := !cg_seen + got.Field_solver.cg_iterations;
    let ctx = Printf.sprintf "step %d: %s" step in
    Alcotest.(check int) (ctx "newton iterations") want.Field_solver.newton_iterations
      got.Field_solver.newton_iterations;
    Alcotest.(check int) (ctx "cg iterations") want.Field_solver.cg_iterations
      got.Field_solver.cg_iterations;
    Alcotest.(check int64) (ctx "residual bits") (bits want.Field_solver.residual)
      (bits got.Field_solver.residual);
    Alcotest.(check bool) (ctx "converged") want.Field_solver.converged got.Field_solver.converged;
    Array.iteri
      (fun i v ->
        if bits v <> bits sim.Fempic_sim.node_phi.Types.d_data.(i) then
          Alcotest.failf "step %d: phi.(%d) = %h, oracle %h" step i
            sim.Fempic_sim.node_phi.Types.d_data.(i) v)
      phi
  done;
  Alcotest.(check bool) (Printf.sprintf "the steps ran CG (%d iterations)" !cg_seen) true
    (!cg_seen > 0)

let test_solver_rejects_malformed_input () =
  let m = mesh () in
  let nnodes = m.Opp_mesh.Tet_mesh.nnodes and ncells = m.Opp_mesh.Tet_mesh.ncells in
  let create ?(cell_nodes = m.Opp_mesh.Tet_mesh.cell_nodes)
      ?(cell_bary = m.Opp_mesh.Tet_mesh.cell_bary) ?(cell_volume = m.Opp_mesh.Tet_mesh.cell_volume)
      ?(node_volume = m.Opp_mesh.Tet_mesh.node_volume) () =
    ignore
      (Field_solver.create ~nnodes ~ncells ~cell_nodes ~cell_bary ~cell_volume ~node_volume
         ~active:(Array.make nnodes true) ~comm:(Field_solver.comm_seq ~nnodes) prm)
  in
  let short a = Array.sub a 0 (Array.length a - 1) in
  let raises name msg f = Alcotest.check_raises name (Invalid_argument msg) f in
  raises "cell_nodes"
    (Printf.sprintf "Field_solver.create: cell_nodes has length %d, expected %d (4 * ncells)"
       ((4 * ncells) - 1) (4 * ncells))
    (fun () -> create ~cell_nodes:(short m.Opp_mesh.Tet_mesh.cell_nodes) ());
  raises "cell_bary"
    (Printf.sprintf "Field_solver.create: cell_bary has length %d, expected %d (16 * ncells)"
       ((16 * ncells) - 1) (16 * ncells))
    (fun () -> create ~cell_bary:(short m.Opp_mesh.Tet_mesh.cell_bary) ());
  raises "cell_volume"
    (Printf.sprintf "Field_solver.create: cell_volume has length %d, expected %d (ncells)"
       (ncells - 1) ncells)
    (fun () -> create ~cell_volume:(short m.Opp_mesh.Tet_mesh.cell_volume) ());
  raises "node_volume"
    (Printf.sprintf "Field_solver.create: node_volume has length %d, expected %d (nnodes)"
       (nnodes - 1) nnodes)
    (fun () -> create ~node_volume:(short m.Opp_mesh.Tet_mesh.node_volume) ());
  let bad = Array.copy m.Opp_mesh.Tet_mesh.cell_nodes in
  bad.(6) <- nnodes;
  raises "node id out of range"
    (Printf.sprintf "Csr.of_elements: element 1, local node 2: node %d out of [0, %d)" nnodes
       nnodes)
    (fun () -> create ~cell_nodes:bad ())

let test_solver_reports_metrics () =
  Opp_obs.Metrics.reset ();
  Opp_obs.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Opp_obs.Metrics.disable ();
      Opp_obs.Metrics.reset ())
    (fun () ->
      let sim = make () in
      ignore (Fempic_sim.prefill sim);
      ignore (Fempic_sim.step sim);
      let st = Option.get sim.Fempic_sim.last_solver_stats in
      let value name = Option.get (Opp_obs.Metrics.value name) in
      Alcotest.(check bool) "cg iterations recorded" true (value "field.cg_iters" > 0.0);
      Alcotest.(check (float 0.0)) "field.cg_iters" (float_of_int st.Field_solver.cg_iterations)
        (value "field.cg_iters");
      Alcotest.(check (float 0.0)) "field.newton_iters"
        (float_of_int st.Field_solver.newton_iterations)
        (value "field.newton_iters");
      Alcotest.(check (float 0.0)) "field.residual" st.Field_solver.residual
        (value "field.residual"))

let suite =
  [
    Alcotest.test_case "injection rate bookkeeping" `Quick test_injection_rate;
    Alcotest.test_case "macro weight matches flux" `Quick test_macro_weight_matches_flux;
    Alcotest.test_case "charge conservation" `Quick test_charge_conservation;
    Alcotest.test_case "lc weights valid" `Quick test_lc_weights_valid;
    Alcotest.test_case "prefill count/distribution" `Quick test_prefill_count_and_distribution;
    Alcotest.test_case "ballistic transit plateau" `Slow test_ballistic_transit;
    Alcotest.test_case "direct-hop equals multi-hop" `Slow test_dh_equals_mh;
    Alcotest.test_case "golden bits: multi-hop, 10 steps" `Quick
      (test_golden_bits ~use_direct_hop:false ~hash:"0xd8ce211cd525ac63");
    Alcotest.test_case "golden bits: direct-hop, 10 steps" `Quick
      (test_golden_bits ~use_direct_hop:true ~hash:"0xd8ce211cd525ac63");
    Alcotest.test_case "hot path: <= 2 minor words per particle" `Quick
      test_hot_path_allocation;
    Alcotest.test_case "move kernel: exit face, ties keep the lower face" `Quick
      test_move_kernel_exit_face;
    Alcotest.test_case "E of a linear potential" `Quick test_electric_field_of_linear_potential;
    Alcotest.test_case "solver: vacuum max principle" `Quick test_solver_vacuum_max_principle;
    Alcotest.test_case "solver: manufactured solution" `Slow test_solver_manufactured_solution;
    Alcotest.test_case "solver: bit-identical to the unfused oracle" `Quick
      test_solver_matches_oracle;
    Alcotest.test_case "solver: malformed input fails clearly" `Quick
      test_solver_rejects_malformed_input;
    Alcotest.test_case "solver: convergence metrics recorded" `Quick test_solver_reports_metrics;
    Alcotest.test_case "Boltzmann electron response" `Slow test_boltzmann_electron_response;
    Alcotest.test_case "steady-state population" `Slow test_steady_state_population;
    Qc.to_alcotest prop_sample_tet_inside;
    Qc.to_alcotest prop_move_finds_containing_cell;
    Alcotest.test_case "mcc: collision frequency" `Quick test_collisions_frequency;
    Alcotest.test_case "mcc: elastic preserves speed" `Quick test_collisions_elastic_preserves_speed;
    Alcotest.test_case "mcc: cx thermalizes drift" `Slow test_collisions_thermalize_drift;
    Alcotest.test_case "mcc: ionization creates particles" `Quick
      test_collisions_ionization_creates_particles;
    Alcotest.test_case "mcc: zero density no-op" `Quick test_collisions_zero_density_noop;
    Alcotest.test_case "checkpoint: exact resume" `Slow test_checkpoint_exact_resume;
    Alcotest.test_case "checkpoint: rejects garbage" `Quick test_checkpoint_rejects_garbage;
    Alcotest.test_case "checkpoint: rejects wrong mesh" `Quick test_checkpoint_rejects_wrong_mesh;
  ]

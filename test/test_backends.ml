(* Backend equivalence tests: the Domains (OpenMP-analogue) backend and
   the simulated SIMT (CUDA/HIP-analogue) backend must reproduce the
   sequential reference results on both mini-apps, and their race
   handling (scatter arrays / AT / UA / SR) must behave as designed. *)

open Opp_core
open Opp_core.Types

let check_float = Alcotest.(check (float 1e-12))

(* --- pool --- *)

let test_pool_chunk () =
  (* chunks tile the range exactly *)
  let n = 103 and parts = 4 in
  let covered = Array.make n 0 in
  for i = 0 to parts - 1 do
    let lo, hi = Opp_thread.Pool.chunk ~n ~parts i in
    for e = lo to hi - 1 do
      covered.(e) <- covered.(e) + 1
    done
  done;
  Array.iter (fun c -> Alcotest.(check int) "covered once" 1 c) covered

let test_pool_runs_all_workers () =
  let pool = Opp_thread.Pool.create 3 in
  Fun.protect
    ~finally:(fun () -> Opp_thread.Pool.shutdown pool)
    (fun () ->
      let hits = Array.make 3 0 in
      for _ = 1 to 5 do
        Opp_thread.Pool.run pool (fun w -> hits.(w) <- hits.(w) + 1)
      done;
      Array.iter (fun h -> Alcotest.(check int) "each worker ran each job" 5 h) hits)

let test_pool_propagates_exception () =
  let pool = Opp_thread.Pool.create 2 in
  Fun.protect
    ~finally:(fun () -> Opp_thread.Pool.shutdown pool)
    (fun () ->
      Alcotest.check_raises "worker failure surfaces" (Failure "boom") (fun () ->
          Opp_thread.Pool.run pool (fun w -> if w = 1 then failwith "boom"));
      (* pool still usable afterwards *)
      let ok = ref 0 in
      Opp_thread.Pool.run pool (fun _ -> incr ok);
      Alcotest.(check bool) "pool survives" true (!ok > 0))

(* --- thread runner semantics --- *)

let test_thread_scatter_increment () =
  (* same indirect-increment loop as the core test, under threads *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 100 in
  let nodes = Opp.decl_set ctx ~name:"nodes" 101 in
  let c2n_data = Array.init 200 (fun i -> (i / 2) + (i mod 2)) in
  let c2n = Opp.decl_map ctx ~name:"c2n" ~from:cells ~to_:nodes ~arity:2 (Some c2n_data) in
  let nd = Opp.decl_dat ctx ~name:"nd" ~set:nodes ~dim:1 None in
  let th = Opp_thread.Thread_runner.create ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Opp_thread.Thread_runner.shutdown th)
    (fun () ->
      Opp_thread.Thread_runner.par_loop th ~name:"inc"
        (fun v ->
          View.inc v.(0) 0 1.0;
          View.inc v.(1) 0 1.0)
        cells Opp.all
        [ Opp.arg_dat_i nd ~idx:0 ~map:c2n Opp.inc; Opp.arg_dat_i nd ~idx:1 ~map:c2n Opp.inc ];
      check_float "end node" 1.0 nd.d_data.(0);
      for n = 1 to 99 do
        check_float "interior" 2.0 nd.d_data.(n)
      done)

let test_thread_rejects_indirect_write () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 4 in
  let nodes = Opp.decl_set ctx ~name:"nodes" 5 in
  let c2n =
    Opp.decl_map ctx ~name:"c2n" ~from:cells ~to_:nodes ~arity:2
      (Some (Array.init 8 (fun i -> (i / 2) + (i mod 2))))
  in
  let nd = Opp.decl_dat ctx ~name:"nd" ~set:nodes ~dim:1 None in
  let th = Opp_thread.Thread_runner.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Opp_thread.Thread_runner.shutdown th)
    (fun () ->
      Alcotest.check_raises "indirect write rejected"
        (Invalid_argument "bad: indirect OPP_WRITE access to nd is racy under threads")
        (fun () ->
          Opp_thread.Thread_runner.par_loop th ~name:"bad" (fun _ -> ()) cells Opp.all
            [ Opp.arg_dat_i nd ~idx:0 ~map:c2n Opp.write ]))

let test_thread_gbl_reduction () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 1000 in
  let d = Opp.decl_dat ctx ~name:"d" ~set:cells ~dim:1 (Some (Array.init 1000 float_of_int)) in
  let th = Opp_thread.Thread_runner.create ~workers:4 () in
  Fun.protect
    ~finally:(fun () -> Opp_thread.Thread_runner.shutdown th)
    (fun () ->
      let acc = [| 0.0 |] in
      Opp_thread.Thread_runner.par_loop th ~name:"sum"
        (fun v -> View.inc v.(1) 0 (View.get v.(0) 0))
        cells Opp.all
        [ Opp.arg_dat d Opp.read; Opp.arg_gbl acc Opp.inc ];
      check_float "sum" (999.0 *. 1000.0 /. 2.0) acc.(0))

(* --- app-level equivalence --- *)

let small_mesh () = Opp_mesh.Tet_mesh.build ~nx:4 ~ny:4 ~nz:8 ~lx:4e-5 ~ly:4e-5 ~lz:8e-5

let fempic_prm = { Fempic.Params.default with Fempic.Params.target_particles = 3000.0 }

let run_fempic runner steps =
  let sim = Fempic.Fempic_sim.create ~prm:fempic_prm ~runner (small_mesh ()) in
  Fempic.Fempic_sim.run sim ~steps;
  sim

let test_fempic_threads_match_seq () =
  let seq_sim = run_fempic (Runner.seq ()) 25 in
  let th = Opp_thread.Thread_runner.create ~workers:2 () in
  Fun.protect
    ~finally:(fun () -> Opp_thread.Thread_runner.shutdown th)
    (fun () ->
      let thr_sim = run_fempic (Opp_thread.Thread_runner.runner th) 25 in
      Alcotest.(check int) "same particle count" seq_sim.Fempic.Fempic_sim.parts.s_size
        thr_sim.Fempic.Fempic_sim.parts.s_size;
      let a = seq_sim.Fempic.Fempic_sim.node_phi.d_data in
      let b = thr_sim.Fempic.Fempic_sim.node_phi.d_data in
      Array.iteri
        (fun i v ->
          Alcotest.(check bool) "phi close" true (Float.abs (v -. b.(i)) < 1e-6 *. (1.0 +. Float.abs v)))
        a)

let test_cabana_threads_match_seq () =
  let prm = { Cabana.Cabana_params.default with Cabana.Cabana_params.nz = 16; ppc = 8 } in
  let seq_sim = Cabana.Cabana_sim.create ~prm () in
  Cabana.Cabana_sim.run seq_sim ~steps:30;
  let e_seq = Cabana.Cabana_sim.energies seq_sim in
  let th = Opp_thread.Thread_runner.create ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Opp_thread.Thread_runner.shutdown th)
    (fun () ->
      let thr_sim = Cabana.Cabana_sim.create ~prm ~runner:(Opp_thread.Thread_runner.runner th) () in
      Cabana.Cabana_sim.run thr_sim ~steps:30;
      let e_thr = Cabana.Cabana_sim.energies thr_sim in
      Alcotest.(check bool) "E energy matches" true
        (Float.abs (e_seq.Cabana.Cabana_sim.e_field -. e_thr.Cabana.Cabana_sim.e_field)
        < 1e-10 *. (1e-12 +. e_seq.Cabana.Cabana_sim.e_field)))

let test_thread_coloring_correct () =
  (* colour-by-colour execution must produce exactly the sequential
     result on the classic cell->node increment *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 200 in
  let nodes = Opp.decl_set ctx ~name:"nodes" 201 in
  let c2n_data = Array.init 400 (fun i -> (i / 2) + (i mod 2)) in
  let c2n = Opp.decl_map ctx ~name:"c2n" ~from:cells ~to_:nodes ~arity:2 (Some c2n_data) in
  let nd = Opp.decl_dat ctx ~name:"nd" ~set:nodes ~dim:1 None in
  let acc = [| 0.0 |] in
  let th = Opp_thread.Thread_runner.create ~workers:3 () in
  Fun.protect
    ~finally:(fun () -> Opp_thread.Thread_runner.shutdown th)
    (fun () ->
      Opp_thread.Thread_runner.par_loop_colored th ~name:"inc"
        (fun v ->
          View.inc v.(0) 0 1.0;
          View.inc v.(1) 0 1.0;
          View.inc v.(2) 0 2.0)
        cells Opp.all
        [
          Opp.arg_dat_i nd ~idx:0 ~map:c2n Opp.inc;
          Opp.arg_dat_i nd ~idx:1 ~map:c2n Opp.inc;
          Opp.arg_gbl acc Opp.inc;
        ];
      Alcotest.(check (float 1e-12)) "gbl reduced" 400.0 acc.(0);
      Alcotest.(check (float 1e-12)) "end node" 1.0 nd.d_data.(0);
      for n = 1 to 199 do
        Alcotest.(check (float 1e-12)) "interior" 2.0 nd.d_data.(n)
      done)

let test_thread_coloring_counts () =
  (* a shared-node chain needs exactly two colours *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 50 in
  let nodes = Opp.decl_set ctx ~name:"nodes" 51 in
  let c2n_data = Array.init 100 (fun i -> (i / 2) + (i mod 2)) in
  let c2n = Opp.decl_map ctx ~name:"c2n" ~from:cells ~to_:nodes ~arity:2 (Some c2n_data) in
  let nd = Opp.decl_dat ctx ~name:"nd" ~set:nodes ~dim:1 None in
  let colors, ncolors =
    Opp_thread.Thread_runner.build_coloring ~lo:0 ~hi:50
      [ Opp.arg_dat_i nd ~idx:0 ~map:c2n Opp.inc; Opp.arg_dat_i nd ~idx:1 ~map:c2n Opp.inc ]
  in
  Alcotest.(check int) "two colours for a chain" 2 ncolors;
  (* adjacent cells never share a colour *)
  for c = 1 to 49 do
    Alcotest.(check bool) "neighbours differ" true (colors.(c) <> colors.(c - 1))
  done

(* --- segmented reduction --- *)

let test_segmented_basic () =
  let sr = Opp_gpu.Segmented.create () in
  Opp_gpu.Segmented.add sr ~key:3 ~value:1.0;
  Opp_gpu.Segmented.add sr ~key:1 ~value:2.0;
  Opp_gpu.Segmented.add sr ~key:3 ~value:4.0;
  let target = Array.make 5 10.0 in
  let distinct = Opp_gpu.Segmented.apply sr target in
  Alcotest.(check int) "distinct keys" 2 distinct;
  check_float "reduced key 3" 15.0 target.(3);
  check_float "reduced key 1" 12.0 target.(1);
  check_float "untouched" 10.0 target.(0);
  Alcotest.(check int) "cleared" 0 (Opp_gpu.Segmented.length sr)

let prop_segmented_matches_direct =
  QCheck.Test.make ~name:"segmented reduction equals direct accumulation" ~count:100
    QCheck.(pair (int_range 1 500) (int_range 0 100_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let sr = Opp_gpu.Segmented.create () in
      let direct = Array.make 20 0.0 and via_sr = Array.make 20 0.0 in
      for _ = 1 to n do
        let key = Rng.int rng 20 in
        let v = Rng.float rng -. 0.5 in
        direct.(key) <- direct.(key) +. v;
        Opp_gpu.Segmented.add sr ~key ~value:v
      done;
      ignore (Opp_gpu.Segmented.apply sr via_sr);
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) direct via_sr)

(* --- simulated GPU --- *)

let gpu_fixture ?(n = 256) () =
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 1 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
  let target = Opp.decl_dat ctx ~name:"t" ~set:cells ~dim:1 None in
  ignore (Opp.inject parts n);
  for i = 0 to n - 1 do
    p2c.m_data.(i) <- 0
  done;
  (ctx, cells, parts, p2c, target)

let test_gpu_conflict_counting () =
  (* 256 particles all incrementing cell 0: with warp 32, every lane
     but the first in each warp conflicts -> 256 - 8 = 248 *)
  let _, _, parts, p2c, target = gpu_fixture () in
  let gpu = Opp_gpu.Gpu_runner.create ~mode:Opp_gpu.Gpu_runner.AT Opp_perf.Device.v100 in
  Opp_gpu.Gpu_runner.par_loop gpu ~name:"deposit"
    (fun v -> View.inc v.(0) 0 1.0)
    parts Opp.all
    [ Opp.arg_dat_p2c target ~p2c Opp.inc ];
  check_float "sum correct" 256.0 target.d_data.(0);
  Alcotest.(check int) "conflicts" 248 gpu.Opp_gpu.Gpu_runner.last_conflicts

let test_gpu_sr_matches_at () =
  let _, _, parts, p2c, target = gpu_fixture () in
  let gpu = Opp_gpu.Gpu_runner.create ~mode:Opp_gpu.Gpu_runner.SR Opp_perf.Device.mi250x_gcd in
  Opp_gpu.Gpu_runner.par_loop gpu ~name:"deposit"
    (fun v -> View.inc v.(0) 0 2.0)
    parts Opp.all
    [ Opp.arg_dat_p2c target ~p2c Opp.inc ];
  check_float "segmented deposit sums" 512.0 target.d_data.(0)

let test_gpu_modeled_atomics_ranking () =
  (* same contended deposit: modelled time must rank AT >> UA >= SR on
     an AMD device (the paper's section 3.3 finding) *)
  (* large enough that atomic traffic, not launch overhead, dominates *)
  let time_with mode =
    let _, _, parts, p2c, target = gpu_fixture ~n:100_000 () in
    let profile = Profile.create () in
    let gpu = Opp_gpu.Gpu_runner.create ~profile ~mode Opp_perf.Device.mi250x_gcd in
    Opp_gpu.Gpu_runner.par_loop gpu ~name:"deposit"
      (fun v -> View.inc v.(0) 0 1.0)
      parts Opp.all
      [ Opp.arg_dat_p2c target ~p2c Opp.inc ];
    Profile.total_seconds ~t:profile ()
  in
  let at = time_with Opp_gpu.Gpu_runner.AT in
  let ua = time_with Opp_gpu.Gpu_runner.UA in
  let sr = time_with Opp_gpu.Gpu_runner.SR in
  Alcotest.(check bool) "AT much slower than UA on AMD" true (at > 10.0 *. ua);
  Alcotest.(check bool) "SR comparable to UA" true (sr < 10.0 *. ua)

let test_gpu_cabana_matches_seq () =
  let prm = { Cabana.Cabana_params.default with Cabana.Cabana_params.nz = 16; ppc = 8 } in
  let seq_sim = Cabana.Cabana_sim.create ~prm () in
  Cabana.Cabana_sim.run seq_sim ~steps:20;
  let gpu = Opp_gpu.Gpu_runner.create ~mode:Opp_gpu.Gpu_runner.AT Opp_perf.Device.v100 in
  let gpu_sim = Cabana.Cabana_sim.create ~prm ~runner:(Opp_gpu.Gpu_runner.runner gpu) () in
  Cabana.Cabana_sim.run gpu_sim ~steps:20;
  let a = Cabana.Cabana_sim.energies seq_sim and b = Cabana.Cabana_sim.energies gpu_sim in
  (* AT executes increments in reference order: bitwise equality *)
  Alcotest.(check (float 0.0)) "identical E energy" a.Cabana.Cabana_sim.e_field
    b.Cabana.Cabana_sim.e_field

let test_gpu_divergence_tracked () =
  (* two particles in one warp, one walking 9 cells, one staying put:
     the warp retires at 10 hops -> divergence = 2*10 / 11 *)
  let ctx = Opp.init () in
  let cells = Opp.decl_set ctx ~name:"cells" 10 in
  let parts = Opp.decl_particle_set ctx ~name:"p" cells in
  let p2c = Opp.decl_map ctx ~name:"p2c" ~from:parts ~to_:cells ~arity:1 None in
  let target = Opp.decl_dat ctx ~name:"target" ~set:parts ~dim:1 None in
  ignore (Opp.inject parts 2);
  p2c.m_data.(0) <- 0;
  target.d_data.(0) <- 9.0;
  p2c.m_data.(1) <- 5;
  target.d_data.(1) <- 5.0;
  let kern views (mc : Seq.move_ctx) =
    let tgt = int_of_float (View.get views.(0) 0) in
    if mc.Seq.cell = tgt then mc.Seq.status <- Seq.Move_done
    else begin
      mc.Seq.cell <- mc.Seq.cell + 1;
      mc.Seq.status <- Seq.Need_move
    end
  in
  let gpu = Opp_gpu.Gpu_runner.create Opp_perf.Device.v100 in
  let r =
    Opp_gpu.Gpu_runner.particle_move gpu ~name:"move" kern parts ~p2c
      [ Opp.arg_dat target Opp.read ]
  in
  Alcotest.(check int) "hops" 11 r.Seq.mv_total_hops;
  (* raw divergence 2 warps * 32 lanes * max-hops / 11 hops, amplified
     by the device's sensitivity *)
  let raw = 320.0 /. 11.0 in
  let sens = Opp_perf.Device.v100.Opp_perf.Device.divergence_sensitivity in
  Alcotest.(check (float 1e-9)) "divergence factor"
    (1.0 +. (sens *. (raw -. 1.0)))
    gpu.Opp_gpu.Gpu_runner.last_divergence

let suite =
  [
    Alcotest.test_case "pool: chunks tile" `Quick test_pool_chunk;
    Alcotest.test_case "pool: all workers run" `Quick test_pool_runs_all_workers;
    Alcotest.test_case "pool: exception propagation" `Quick test_pool_propagates_exception;
    Alcotest.test_case "threads: scatter-array increments" `Quick test_thread_scatter_increment;
    Alcotest.test_case "threads: indirect write rejected" `Quick test_thread_rejects_indirect_write;
    Alcotest.test_case "threads: global reduction" `Quick test_thread_gbl_reduction;
    Alcotest.test_case "threads: coloring correct" `Quick test_thread_coloring_correct;
    Alcotest.test_case "threads: coloring counts" `Quick test_thread_coloring_counts;
    Alcotest.test_case "threads: fempic matches seq" `Slow test_fempic_threads_match_seq;
    Alcotest.test_case "threads: cabana matches seq" `Slow test_cabana_threads_match_seq;
    Alcotest.test_case "segmented: basic" `Quick test_segmented_basic;
    Qc.to_alcotest prop_segmented_matches_direct;
    Alcotest.test_case "gpu: conflict counting" `Quick test_gpu_conflict_counting;
    Alcotest.test_case "gpu: SR deposit correct" `Quick test_gpu_sr_matches_at;
    Alcotest.test_case "gpu: AT >> UA on AMD (model)" `Quick test_gpu_modeled_atomics_ranking;
    Alcotest.test_case "gpu: cabana bitwise vs seq" `Slow test_gpu_cabana_matches_seq;
    Alcotest.test_case "gpu: divergence tracked" `Quick test_gpu_divergence_tracked;
  ]

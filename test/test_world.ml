(* Golden oracle for live world changes: both distributed apps run
   with the step planner on and off across a rebalance epoch and a
   shrink recovery, and the order-canonical state hash at the end must
   equal a constant recorded on the per-app epoch code this
   replaced. Plan x balance x heal in one run. *)

open Opp_core
module FD = Apps_dist.Fempic_dist
module CD = Apps_dist.Cabana_dist

let hex h = Printf.sprintf "0x%016Lx" h

let fempic_episode ~plan =
  Runner.clear_launch_hooks ();
  let app =
    FD.create ~prm:Experiments.Config.fempic_small_prm ~nranks:3 ~partitioner:`Slab ~plan
      ~plan_verbose:false
      (Experiments.Config.fempic_mesh ())
  in
  FD.run app ~steps:6;
  let w = FD.cell_particle_weights app in
  ignore (FD.rebalance app ~weight:(fun c -> w.(c)));
  FD.run app ~steps:4;
  ignore (FD.shrink app ~dead:1 (FD.sections_all app).(1));
  FD.run app ~steps:4;
  let r = (FD.state_hash app, FD.total_particles app) in
  FD.shutdown app;
  Runner.clear_launch_hooks ();
  r

let cabana_episode ~plan =
  Runner.clear_launch_hooks ();
  let app =
    CD.create ~prm:(Experiments.Config.cabana_prm ~ppc:16) ~nranks:3 ~plan ~plan_verbose:false ()
  in
  CD.run app ~steps:4;
  ignore (CD.rebalance app ~weight:(fun c -> float (1 + c)));
  CD.run app ~steps:3;
  ignore (CD.shrink app ~dead:1 (CD.sections_all app).(1));
  CD.run app ~steps:3;
  let r = (CD.state_hash app, CD.total_particles app) in
  CD.shutdown app;
  Runner.clear_launch_hooks ();
  r

let golden name episode ~hash ~particles () =
  List.iter
    (fun plan ->
      let h, n = episode ~plan in
      let leg = Printf.sprintf "%s (plan %b)" name plan in
      Alcotest.(check string) (leg ^ ": state hash") hash (hex h);
      Alcotest.(check int) (leg ^ ": particles") particles n)
    [ false; true ]

let suite =
  [
    Alcotest.test_case "golden: fempic rebalance+shrink, plan on/off" `Quick
      (golden "fempic" fempic_episode ~hash:"0x42100f2388dd8d15" ~particles:4811);
    Alcotest.test_case "golden: cabana rebalance+shrink, plan on/off" `Quick
      (golden "cabana" cabana_episode ~hash:"0x1bece05f16e466be" ~particles:3072);
  ]

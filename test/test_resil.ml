(* Tests for opp_resil: injector determinism, the detection envelope
   (every injected drop/duplicate/corruption/stale-replay is caught),
   sharded checkpoint integrity and torn-shard fallback, link
   validation at Exch.create, and end-to-end fault transparency — runs
   with faults injected (including a rank crash at every possible
   step) finish bit-for-bit identical to fault-free ones. *)

open Opp_dist
open Opp_resil
module Fd = Apps_dist.Fempic_dist

(* the global injector must never leak into other suites *)
let with_injector inj f =
  Fault.install inj;
  Fun.protect ~finally:Fault.uninstall f

let tmpdir prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* --- codec --- *)

let prop_checksum_bit_sensitive =
  QCheck.Test.make ~name:"checksum catches any single bit flip" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 1 32) (float_bound_exclusive 1e9)) small_nat)
    (fun (vs, bit) ->
      let a = Array.of_list vs in
      let sum = Codec.checksum_floats a in
      let b = Array.copy a in
      Opp_dist.Envelope.flip_bit b (bit mod (Array.length b * 64));
      Codec.checksum_floats b <> sum)

(* --- injector determinism --- *)

let prop_injector_deterministic =
  QCheck.Test.make ~name:"fault decisions replay identically under a fixed seed" ~count:500
    QCheck.(triple small_nat small_nat small_nat)
    (fun (seed, seq, attempt) ->
      let mk () =
        Fault.create ~seed
          [ (Fault.Drop, None, 0.3); (Fault.Corrupt, Some Fault.Halo, 0.3) ]
      in
      let a = mk () and b = mk () in
      List.for_all
        (fun (kind, chan) ->
          Fault.fires a kind chan ~seq ~attempt = Fault.fires b kind chan ~seq ~attempt)
        [
          (Fault.Drop, Fault.Halo);
          (Fault.Drop, Fault.Migrate);
          (Fault.Corrupt, Fault.Halo);
          (Fault.Corrupt, Fault.Allreduce);
        ]
      && Fault.corrupt_bit a Fault.Halo ~seq ~attempt ~nbits:640
         = Fault.corrupt_bit b Fault.Halo ~seq ~attempt ~nbits:640)

let test_parse () =
  (match Fault.parse "seed=42,drop=halo:0.05,corrupt=migrate:0.02,retries=4,crash=1@7" with
  | Ok inj ->
      Alcotest.(check int) "retries" 4 (Fault.max_attempts inj);
      Alcotest.(check (float 0.0)) "drop halo rate" 0.05 (Fault.rate inj Fault.Drop Fault.Halo);
      Alcotest.(check (float 0.0)) "drop migrate rate" 0.0 (Fault.rate inj Fault.Drop Fault.Migrate);
      Alcotest.(check (float 0.0))
        "corrupt migrate rate" 0.02
        (Fault.rate inj Fault.Corrupt Fault.Migrate)
  | Error msg -> Alcotest.failf "expected parse success, got: %s" msg);
  (match Fault.parse "drop=bogus:0.5" with
  | Ok _ -> Alcotest.fail "expected parse failure on bad channel"
  | Error _ -> ());
  match Fault.parse "crash=oops" with
  | Ok _ -> Alcotest.fail "expected parse failure on bad crash spec"
  | Error _ -> ()

(* --- Exch.create validation --- *)

let link ~local ~rank ~index =
  { Exch.l_local = local; l_owner_rank = rank; l_owner_index = index }

let expect_invalid code links =
  match Exch.create ~sizes:[| 3; 3 |] ~nranks:2 links with
  | (_ : Exch.t) -> Alcotest.failf "expected %s to be raised" code
  | exception Exch.Invalid_links msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message carries %s: %s" code msg)
        true
        (String.length msg >= 4 && String.sub msg 0 4 = code)

let test_create_validation () =
  (* valid links pass *)
  ignore
    (Exch.create ~sizes:[| 3; 3 |] ~nranks:2
       [| [| link ~local:2 ~rank:1 ~index:0 |]; [| link ~local:2 ~rank:0 ~index:0 |] |]);
  expect_invalid "E070" [| [| link ~local:2 ~rank:5 ~index:0 |]; [||] |];
  expect_invalid "E070" [| [| link ~local:2 ~rank:(-1) ~index:0 |]; [||] |];
  expect_invalid "E071" [| [| link ~local:2 ~rank:0 ~index:0 |]; [||] |];
  expect_invalid "E072" [| [| link ~local:3 ~rank:1 ~index:0 |]; [||] |];
  expect_invalid "E072" [| [| link ~local:2 ~rank:1 ~index:7 |]; [||] |];
  expect_invalid "E072" [| [| link ~local:(-1) ~rank:1 ~index:0 |]; [||] |]

(* --- detection completeness --- *)

(* Exercise guarded exchange + reduce + migration under a seeded
   schedule and assert every injected drop / duplicate / corruption /
   stale replay was observed by exactly one detector. *)
let prop_detection_complete =
  QCheck.Test.make ~name:"every injected drop/dup/corrupt/stale is detected" ~count:60
    QCheck.small_nat
    (fun seed ->
      (* generous attempt budget: at these rates roughly half of all
         attempts fail, and this property is about detection, not the
         retry bound *)
      let inj =
        Fault.create ~seed ~max_attempts:40
          [
            (Fault.Drop, None, 0.2);
            (Fault.Dup, None, 0.2);
            (Fault.Corrupt, None, 0.2);
            (Fault.Stale, Some Fault.Halo, 0.2);
          ]
      in
      with_injector inj (fun () ->
          let exch =
            Exch.create ~nranks:3
              [|
                [| link ~local:2 ~rank:1 ~index:0; link ~local:3 ~rank:2 ~index:1 |];
                [| link ~local:2 ~rank:0 ~index:1; link ~local:3 ~rank:2 ~index:0 |];
                [| link ~local:2 ~rank:0 ~index:0; link ~local:3 ~rank:1 ~index:1 |];
              |]
          in
          let data = Array.init 3 (fun r -> Array.init 4 (fun i -> float_of_int ((10 * r) + i))) in
          for _ = 1 to 5 do
            Exch.exchange exch ~dim:1 ~data:(fun r -> data.(r));
            Exch.reduce exch ~dim:1 ~data:(fun r -> data.(r));
            ignore (Exch.allreduce_sum ~nranks:3 [| 1.0; 2.0; 3.0 |]);
            let mail = Mailbox.create ~nranks:3 ~payload_dim:2 in
            for i = 0 to 9 do
              Mailbox.post mail ~src:0 ~dest:(1 + (i mod 2)) ~cell:i
                ~payload:[| float_of_int i; 0.5 |]
            done;
            ignore (Mailbox.deliver mail (fun _ _ -> ()))
          done;
          Fault.stat inj "drop.injected" = Fault.stat inj "drop.detected"
          && Fault.stat inj "dup.injected" = Fault.stat inj "dup.detected"
          && Fault.stat inj "corrupt.injected" = Fault.stat inj "corrupt.detected"
          && Fault.stat inj "stale.injected" = Fault.stat inj "stale.rejected"
          && Fault.stat inj "drop.injected" + Fault.stat inj "corrupt.injected" > 0))

let test_mailbox_quarantine () =
  let inj = Fault.create [] in
  with_injector inj (fun () ->
      let mail = Mailbox.create ~nranks:2 ~payload_dim:2 in
      Mailbox.post mail ~src:0 ~dest:1 ~cell:3 ~payload:[| Float.nan; 1.0 |];
      Mailbox.post mail ~src:0 ~dest:1 ~cell:4 ~payload:[| 2.0; 1.0 |];
      let got = ref [] in
      let n = Mailbox.deliver mail (fun _ batch -> got := batch) in
      Alcotest.(check int) "one survivor delivered" 1 n;
      Alcotest.(check int) "quarantined counted" 1 (Fault.stat inj "quarantined");
      match !got with
      | [ (4, [| 2.0; 1.0 |]) ] -> ()
      | _ -> Alcotest.fail "survivor batch mismatch")

(* --- sharded checkpoints --- *)

let sections_a = [ Ckpt.Floats ("x", [| 1.5; -2.25 |]); Ckpt.Ints ("n", [| 7 |]) ]
let sections_b = [ Ckpt.Floats ("x", [| 4.0 |]); Ckpt.I64s ("r", [| 42L |]) ]

let test_ckpt_roundtrip () =
  let dir = tmpdir "opp_resil_ckpt" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Ckpt.save ~dir ~step:2 [| sections_a; sections_b |];
      Ckpt.save ~dir ~step:4 [| sections_b; sections_a |];
      (match Ckpt.load ~dir with
      | Some (4, shards) ->
          Alcotest.(check int) "two shards" 2 (Array.length shards);
          Alcotest.(check (array (float 0.0)))
            "floats round-trip" [| 4.0 |]
            (Ckpt.floats shards.(0) "x");
          Alcotest.(check int) "ints round-trip" 7 (Ckpt.ints shards.(1) "n").(0)
      | _ -> Alcotest.fail "expected checkpoint at step 4");
      Alcotest.(check (list int)) "available newest first" [ 4; 2 ] (Ckpt.available ~dir))

let test_ckpt_torn_fallback () =
  let dir = tmpdir "opp_resil_torn" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Ckpt.save ~dir ~step:2 [| sections_a |];
      Ckpt.save ~dir ~step:4 [| sections_b |];
      (* flip one byte in the newest shard: its checksum no longer
         matches the manifest, so load falls back to step 2 *)
      let shard = Filename.concat dir "ckpt-00000004/shard-0000.bin" in
      let bytes = In_channel.with_open_bin shard In_channel.input_all in
      let corrupted = Bytes.of_string bytes in
      Bytes.set corrupted
        (Bytes.length corrupted - 1)
        (Char.chr (Char.code (Bytes.get corrupted (Bytes.length corrupted - 1)) lxor 0x10));
      Out_channel.with_open_bin shard (fun oc -> Out_channel.output_bytes oc corrupted);
      (match Ckpt.load ~dir with
      | Some (2, _) -> ()
      | Some (s, _) -> Alcotest.failf "fell back to wrong step %d" s
      | None -> Alcotest.fail "expected fallback to step 2");
      (* a missing manifest also invalidates a checkpoint *)
      Sys.remove (Filename.concat dir "ckpt-00000002/MANIFEST");
      Alcotest.(check bool) "no valid checkpoint left" true (Ckpt.load ~dir = None))

let test_ckpt_prune () =
  let dir = tmpdir "opp_resil_prune" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      for s = 1 to 6 do
        Ckpt.save ~keep:2 ~dir ~step:s [| sections_a |]
      done;
      Alcotest.(check (list int)) "keeps newest two" [ 6; 5 ] (Ckpt.available ~dir))

let test_legacy_checkpoint_atomic () =
  (* the sequential fempic checkpoint (a one-rank world) commits by
     rename: the checkpoint is there and no temp residue is left *)
  let mesh = Opp_mesh.Tet_mesh.build ~nx:3 ~ny:3 ~nz:4 ~lx:3e-5 ~ly:3e-5 ~lz:4e-5 in
  let prm = { Fempic.Params.default with Fempic.Params.target_particles = 500.0 } in
  let sim = Fempic.Fempic_sim.create ~prm mesh in
  for _ = 1 to 2 do
    ignore (Fempic.Fempic_sim.step sim)
  done;
  let dir = tmpdir "oppic_atomic" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      Ckpt.save ~dir ~step:2
        (Opp_dist.World.one_shard ~step:2 (Apps_dist.Fempic_dist.state sim));
      Alcotest.(check (list int)) "snapshot exists" [ 2 ] (Ckpt.available ~dir);
      Alcotest.(check bool) "no temp residue" false
        (Array.exists (fun e -> Filename.check_suffix e ".tmp") (Sys.readdir dir)))

(* --- end-to-end fault transparency --- *)

let fempic_mesh () = Opp_mesh.Tet_mesh.build ~nx:4 ~ny:4 ~nz:8 ~lx:4e-5 ~ly:4e-5 ~lz:8e-5
let fempic_prm = { Fempic.Params.default with Fempic.Params.target_particles = 2000.0 }

let section_sig = function
  | Ckpt.Floats (n, a) -> (n, Codec.checksum_floats a)
  | Ckpt.Ints (n, a) -> (n, Codec.checksum_ints a)
  | Ckpt.I64s (n, a) -> (n, Codec.checksum_i64s a)

(* the full distributed state, as per-rank section signatures plus the
   driver's solver guess and step counter *)
let fempic_sig (t : Fd.t) =
  ( Array.init t.Fd.nranks (fun r -> List.map section_sig (Fd.rank_sections t r)),
    Codec.checksum_floats t.Fd.g_phi,
    t.Fd.step_count )

let fempic_baseline ~steps =
  let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
  for _ = 1 to steps do
    ignore (Fd.step dist)
  done;
  fempic_sig dist

let test_fempic_faulty_equals_clean () =
  let steps = 4 in
  let clean = fempic_baseline ~steps in
  let inj =
    Fault.create ~seed:11
      [
        (Fault.Drop, None, 0.1);
        (Fault.Corrupt, None, 0.05);
        (Fault.Dup, None, 0.05);
        (Fault.Reorder, Some Fault.Halo, 0.1);
        (Fault.Stale, Some Fault.Halo, 0.05);
      ]
  in
  let faulty =
    with_injector inj (fun () ->
        let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
        for _ = 1 to steps do
          ignore (Fd.step dist)
        done;
        fempic_sig dist)
  in
  Alcotest.(check bool) "some faults were injected" true (Fault.stat inj "drop.injected" > 0);
  Alcotest.(check bool) "faulty run matches clean bit-for-bit" true (faulty = clean)

(* Crash-at-every-step sweep: for each step s of a short run, crash a
   rank there, recover from the newest checkpoint (cold start when the
   crash lands before the first one), replay, and demand the final
   state match the uninterrupted run bit-for-bit. *)
let test_fempic_crash_sweep () =
  let steps = 5 and ckpt_every = 2 in
  let clean = fempic_baseline ~steps in
  for crash_step = 1 to steps do
    let dir = tmpdir "opp_resil_sweep" in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let inj = Fault.create ~crash:(crash_step mod 3, crash_step) [] in
        let final =
          with_injector inj (fun () ->
              let dist = ref (Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ())) in
              let crashed = ref false in
              while !dist.Fd.step_count < steps do
                match Fd.step !dist with
                | (_ : int) ->
                    if !dist.Fd.step_count mod ckpt_every = 0 then
                      Fd.save_checkpoint !dist ~dir
                | exception Rank_crash _ ->
                    crashed := true;
                    Fd.shutdown !dist;
                    dist := Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ());
                    ignore (Fd.restore_checkpoint !dist ~dir)
              done;
              Alcotest.(check bool)
                (Printf.sprintf "crash fired at step %d" crash_step)
                true !crashed;
              fempic_sig !dist)
        in
        Alcotest.(check bool)
          (Printf.sprintf "recovered run (crash at %d) matches clean" crash_step)
          true (final = clean))
  done

(* --- online recovery (opp_heal) --- *)

(* Crash-at-every-step sweep under --heal=respawn: the dead rank is
   rebuilt in place from the journal (no teardown, no checkpoint
   restore, no replayed steps) and the run must still finish
   bit-for-bit identical to the uninterrupted one. *)
let test_fempic_heal_respawn_sweep () =
  let steps = 5 in
  let clean = fempic_baseline ~steps in
  for crash_step = 1 to steps do
    let inj = Fault.create ~crash:(crash_step mod 3, crash_step) [] in
    let final =
      with_injector inj (fun () ->
          let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
          let healer = Apps_dist.Dist_heal.fempic ~mode:Opp_heal.Heal.Respawn () in
          Apps_dist.Dist_heal.record healer dist ~step:0;
          let healed = ref false in
          while dist.Fd.step_count < steps do
            match Fd.step dist with
            | (_ : int) ->
                Apps_dist.Dist_heal.record healer dist ~step:dist.Fd.step_count
            | exception Rank_crash { rank; step } ->
                healed := true;
                ignore (Apps_dist.Dist_heal.recover healer dist ~rank ~step)
          done;
          Alcotest.(check bool)
            (Printf.sprintf "crash healed at step %d" crash_step)
            true !healed;
          fempic_sig dist)
    in
    Alcotest.(check bool)
      (Printf.sprintf "respawn-healed run (crash at %d) matches clean bit-for-bit" crash_step)
      true (final = clean)
  done

(* Shrink recovery end-to-end on fempic: heal a crash by degrading to
   2 ranks. The re-partition itself must preserve the global state
   hash exactly (it only moves state); the continued run is not
   bit-identical to the clean one (reduction order changed) but must
   conserve the particle population — injection streams follow their
   global face identity across the re-partition. *)
let test_fempic_heal_shrink () =
  let steps = 6 and crash_step = 3 in
  let clean_particles =
    let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
    for _ = 1 to steps do
      ignore (Fd.step dist)
    done;
    Fd.total_particles dist
  in
  let inj = Fault.create ~crash:(1, crash_step) [] in
  with_injector inj (fun () ->
      let dist = Fd.create ~prm:fempic_prm ~nranks:3 (fempic_mesh ()) in
      let healer = Apps_dist.Dist_heal.fempic ~mode:Opp_heal.Heal.Shrink () in
      Apps_dist.Dist_heal.record healer dist ~step:0;
      let healed = ref false in
      while dist.Fd.step_count < steps do
        match Fd.step dist with
        | (_ : int) -> Apps_dist.Dist_heal.record healer dist ~step:dist.Fd.step_count
        | exception Rank_crash { rank; step } ->
            healed := true;
            let before = Fd.state_hash dist in
            let parts = Fd.total_particles dist in
            ignore (Apps_dist.Dist_heal.recover healer dist ~rank ~step);
            Alcotest.(check int) "shrunk to 2 ranks" 2 dist.Fd.nranks;
            Alcotest.(check bool)
              "re-partition preserves the global state hash" true
              (Fd.state_hash dist = before);
            Alcotest.(check int) "re-partition conserves particles" parts
              (Fd.total_particles dist)
      done;
      Alcotest.(check bool) "crash healed" true !healed;
      Alcotest.(check int) "degraded run conserves the clean population" clean_particles
        (Fd.total_particles dist))

(* --- CabanaPIC resume --- *)

let cabana_prm = { Cabana.Cabana_params.default with Cabana.Cabana_params.nz = 16; ppc = 8 }

let cabana_sig (sim : Cabana.Cabana_sim.t) =
  (List.map section_sig (Cabana.Cabana_ckpt.sections sim), sim.Cabana.Cabana_sim.step_count)

let test_cabana_resume_bit_exact () =
  let dir = tmpdir "opp_resil_cabana" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let a = Cabana.Cabana_sim.create ~prm:cabana_prm () in
      for _ = 1 to 3 do
        Cabana.Cabana_sim.step a
      done;
      Cabana.Cabana_ckpt.save a ~dir;
      for _ = 1 to 3 do
        Cabana.Cabana_sim.step a
      done;
      let b = Cabana.Cabana_sim.create ~prm:cabana_prm () in
      (match Cabana.Cabana_ckpt.load b ~dir with
      | Some 3 -> ()
      | Some s -> Alcotest.failf "resumed at wrong step %d" s
      | None -> Alcotest.fail "expected a valid checkpoint");
      for _ = 1 to 3 do
        Cabana.Cabana_sim.step b
      done;
      Alcotest.(check bool) "resumed run matches uninterrupted" true (cabana_sig a = cabana_sig b);
      (* a different seed must be rejected, not silently blended *)
      let c =
        Cabana.Cabana_sim.create
          ~prm:{ cabana_prm with Cabana.Cabana_params.seed = cabana_prm.Cabana.Cabana_params.seed + 1 }
          ()
      in
      match Cabana.Cabana_ckpt.load c ~dir with
      | exception Ckpt.Corrupt _ -> ()
      | _ -> Alcotest.fail "expected seed mismatch rejection")

let test_cabana_dist_faulty_crash_equals_clean () =
  let steps = 4 in
  let run_clean () =
    let dist = Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks:2 () in
    for _ = 1 to steps do
      Apps_dist.Cabana_dist.step dist
    done;
    ( Array.init 2 (fun r -> List.map section_sig (Cabana.Cabana_ckpt.sections dist.Apps_dist.Cabana_dist.sims.(r))),
      dist.Apps_dist.Cabana_dist.step_count )
  in
  let clean = run_clean () in
  let dir = tmpdir "opp_resil_cbd" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let inj =
        Fault.create ~seed:5 ~crash:(1, 3)
          [ (Fault.Drop, None, 0.1); (Fault.Corrupt, None, 0.05) ]
      in
      let faulty =
        with_injector inj (fun () ->
            let dist = ref (Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks:2 ()) in
            while !dist.Apps_dist.Cabana_dist.step_count < steps do
              match Apps_dist.Cabana_dist.step !dist with
              | () ->
                  if !dist.Apps_dist.Cabana_dist.step_count mod 2 = 0 then
                    Apps_dist.Cabana_dist.save_checkpoint !dist ~dir
              | exception Rank_crash _ ->
                  Apps_dist.Cabana_dist.shutdown !dist;
                  dist := Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks:2 ();
                  ignore (Apps_dist.Cabana_dist.restore_checkpoint !dist ~dir)
            done;
            ( Array.init 2 (fun r ->
                  List.map section_sig
                    (Cabana.Cabana_ckpt.sections !dist.Apps_dist.Cabana_dist.sims.(r))),
              !dist.Apps_dist.Cabana_dist.step_count ))
      in
      Alcotest.(check bool) "faults fired" true (Fault.stat inj "crashes" = 1);
      Alcotest.(check bool) "faulted+crashed cabana run matches clean" true (faulty = clean))

(* The qcheck shrink oracle, in the spirit of Opp_plan.Interp's
   owned-state hash: the global observable state (owned fields by
   global identity plus the particle multiset) hashed canonically must
   be invariant under shrink-recovery for any (rank count, dead rank,
   crash point) — redistribution moves state, never makes it. *)
let prop_shrink_preserves_state_hash =
  QCheck.Test.make
    ~name:"shrink recovery preserves the global state hash (owned-state oracle)" ~count:8
    QCheck.(triple (int_range 2 4) small_nat (int_range 0 3))
    (fun (nranks, dead0, pre_steps) ->
      let dead = dead0 mod nranks in
      let dist = Apps_dist.Cabana_dist.create ~prm:cabana_prm ~nranks () in
      for _ = 1 to pre_steps do
        Apps_dist.Cabana_dist.step dist
      done;
      let h0 = Apps_dist.Cabana_dist.state_hash dist in
      let n0 = Apps_dist.Cabana_dist.total_particles dist in
      (* what journal reconstruction would return for the dead rank:
         its exact current sections *)
      let sections = (Apps_dist.Cabana_dist.sections_all dist).(dead) in
      let survivors = Apps_dist.Cabana_dist.shrink dist ~dead sections in
      let ok =
        survivors = nranks - 1
        && Apps_dist.Cabana_dist.state_hash dist = h0
        && Apps_dist.Cabana_dist.total_particles dist = n0
      in
      (* the degraded world must actually run (halo links, freshness
         and particle localization all valid) *)
      for _ = 1 to 2 do
        Apps_dist.Cabana_dist.step dist
      done;
      ok && Apps_dist.Cabana_dist.total_particles dist = n0)

let suite =
  [
    Alcotest.test_case "fault spec parsing" `Quick test_parse;
    Alcotest.test_case "Exch.create link validation (E070-E072)" `Quick test_create_validation;
    Alcotest.test_case "mailbox quarantines poisoned migrants" `Quick test_mailbox_quarantine;
    Alcotest.test_case "checkpoint round-trip" `Quick test_ckpt_roundtrip;
    Alcotest.test_case "torn shard falls back to older checkpoint" `Quick test_ckpt_torn_fallback;
    Alcotest.test_case "checkpoint pruning keeps newest" `Quick test_ckpt_prune;
    Alcotest.test_case "legacy fempic snapshot writes atomically" `Quick
      test_legacy_checkpoint_atomic;
    Alcotest.test_case "fempic_dist: faulty run == clean run" `Slow
      test_fempic_faulty_equals_clean;
    Alcotest.test_case "fempic_dist: crash-at-every-step recovery sweep" `Slow
      test_fempic_crash_sweep;
    Alcotest.test_case "opp_heal: respawn crash-at-every-step sweep is bit-identical" `Slow
      test_fempic_heal_respawn_sweep;
    Alcotest.test_case "opp_heal: fempic shrink recovery conserves state" `Slow
      test_fempic_heal_shrink;
    Alcotest.test_case "cabana: checkpoint resume is bit-exact" `Quick
      test_cabana_resume_bit_exact;
    Alcotest.test_case "cabana_dist: faulty+crashed run == clean run" `Slow
      test_cabana_dist_faulty_crash_equals_clean;
    Qc.to_alcotest prop_shrink_preserves_state_hash;
    Qc.to_alcotest prop_checksum_bit_sensitive;
    Qc.to_alcotest prop_injector_deterministic;
    Qc.to_alcotest prop_detection_complete;
  ]

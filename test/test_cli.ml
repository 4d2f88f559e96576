(* The command-line surface of every bin/ executable: help renders,
   and bad input fails with a message and a nonzero exit. The
   executables are siblings of this test's build directory. *)

let bin name =
  Filename.concat (Filename.dirname Sys.executable_name) (Printf.sprintf "../bin/%s.exe" name)

(* Run [bin name] with [args]; returns the exit code and the combined
   stdout/stderr text. *)
let run name args =
  let out = Filename.temp_file "oppic_cli" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let cmd =
        Printf.sprintf "%s %s > %s 2>&1"
          (Filename.quote (bin name))
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out)
      in
      let code = Sys.command cmd in
      (code, In_channel.with_open_bin out In_channel.input_all))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let executables =
  [ "fempic_run"; "cabana_run"; "oppic_gen"; "oppic_lint"; "oppic_prof"; "oppic_top" ]

let test_help () =
  List.iter
    (fun name ->
      let code, text = run name [ "--help=plain" ] in
      Alcotest.(check int) (name ^ " --help exits 0") 0 code;
      Alcotest.(check bool) (name ^ " --help has no cmdliner error") false
        (contains text "cmdliner error");
      Alcotest.(check bool) (name ^ " --help prints a manual") true (contains text "NAME"))
    executables

(* A restart directory holding only the removed single-file fempic
   snapshot must fail loudly, not start fresh or crash. *)
let test_legacy_fempic_checkpoint () =
  Tmp_dir.with_dir "oppic_legacy" (fun dir ->
      let legacy = Filename.concat dir "fempic.ckpt" in
      Out_channel.with_open_bin legacy (fun oc -> output_string oc "OPPIC legacy snapshot");
      let code, text = run "fempic_run" [ "--backend"; "seq"; "--steps"; "1"; "--restart"; dir ] in
      Alcotest.(check bool) "nonzero exit" true (code <> 0);
      Alcotest.(check bool) "names the old format" true
        (contains text "fempic.ckpt" && contains text "legacy single-file");
      Alcotest.(check bool) "no fresh start" false (contains text "starting fresh");
      Alcotest.(check bool) "no uncaught exception" false (contains text "Fatal error"))

(* A distributed checkpoint written on 3 ranks cannot resume a 2-rank
   run: a clear error and a nonzero exit, not an uncaught exception. *)
let test_rank_count_mismatch () =
  Tmp_dir.with_dir "oppic_ranks" (fun dir ->
      let mpi ranks = [ "--backend"; "mpi"; "--ranks"; string_of_int ranks; "--steps"; "2" ] in
      let code, _ = run "fempic_run" (mpi 3 @ [ "--ckpt-every"; "2"; "--ckpt-dir"; dir ]) in
      Alcotest.(check int) "3-rank run writes a checkpoint" 0 code;
      let code, text = run "fempic_run" (mpi 2 @ [ "--restart"; dir ]) in
      Alcotest.(check bool) "nonzero exit" true (code <> 0);
      Alcotest.(check bool) "says why" true (contains text "rank count mismatch");
      Alcotest.(check bool) "no uncaught exception" false (contains text "Fatal error"))

(* Counts a run cannot start from fail up front with an error line
   naming the flag, never an uncaught Invalid_argument. *)
let test_bad_counts () =
  List.iter
    (fun name ->
      List.iter
        (fun (flag, args) ->
          let code, text = run name (args @ [ "--steps"; "1" ]) in
          let what = Printf.sprintf "%s %s" name (String.concat " " args) in
          Alcotest.(check bool) (what ^ ": nonzero exit") true (code <> 0);
          Alcotest.(check bool) (what ^ ": names the flag") true
            (contains text ("error: --" ^ flag));
          Alcotest.(check bool) (what ^ ": no uncaught exception") false
            (contains text "Fatal error"))
        [
          ("ranks", [ "--ranks"; "0"; "--backend"; "mpi" ]);
          ("nx", [ "--nx"; "0" ]);
          ("workers", [ "--workers"; "0"; "--backend"; "omp" ]);
        ])
    [ "fempic_run"; "cabana_run" ]

(* Physical input a run cannot use (a duct of zero, negative or
   non-finite length, a negative particle target or step count, fewer
   than one particle per cell, a NaN stream speed) is refused with an
   error line naming the flag and exit 1. Before, these died of an
   uncaught exception or ran silently. *)
let test_bad_physical_input () =
  List.iter
    (fun (name, flag, arg) ->
      let args = if flag = "steps" then [ arg ] else [ arg; "--steps"; "1" ] in
      let code, text = run name args in
      let what = Printf.sprintf "%s %s" name arg in
      Alcotest.(check int) (what ^ ": exit 1") 1 code;
      Alcotest.(check bool) (what ^ ": names the flag") true (contains text ("error: --" ^ flag));
      Alcotest.(check bool) (what ^ ": no uncaught exception") false
        (contains text "Fatal error"))
    [
      ("fempic_run", "lx", "--lx=0");
      ("fempic_run", "lx", "--lx=-1e-5");
      ("fempic_run", "ly", "--ly=inf");
      ("fempic_run", "lz", "--lz=nan");
      ("fempic_run", "particles", "--particles=-1");
      ("fempic_run", "steps", "--steps=-1");
      ("cabana_run", "ppc", "--ppc=-2");
      ("cabana_run", "ppc", "--ppc=0");
      ("cabana_run", "v0", "--v0=nan");
      ("cabana_run", "steps", "--steps=-1");
    ]

(* --validate exits 3 on any DSL-versus-original difference; the port
   matches bit for bit, so a short run exits 0 with a zero maximum. *)
let test_cabana_validate () =
  let code, text = run "cabana_run" [ "--validate"; "--steps"; "5" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "zero difference" true
    (contains text "max |E energy difference| over 5 steps: 0.000e+00")

let suite =
  [
    Alcotest.test_case "--help renders on every executable" `Quick test_help;
    Alcotest.test_case "fempic_run rejects a legacy checkpoint" `Quick
      test_legacy_fempic_checkpoint;
    Alcotest.test_case "fempic_run rejects another rank count's checkpoint" `Quick
      test_rank_count_mismatch;
    Alcotest.test_case "zero ranks, cells or workers are refused" `Quick test_bad_counts;
    Alcotest.test_case "bad physical input is refused" `Quick test_bad_physical_input;
    Alcotest.test_case "cabana_run --validate matches the original" `Quick test_cabana_validate;
  ]

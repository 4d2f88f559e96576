(* Deterministic property tests: every qcheck property runs on the
   seed in QCHECK_SEED, or on [default_seed] when it is unset, so a
   plain `dune runtest` is reproducible. Seed 5 exposed an unsound
   liveness rule in opp_plan, so it doubles as a regression check. CI
   sweeps rotating seeds on top of this. *)

let default_seed = 5

let seed =
  lazy
    (let s =
       match Sys.getenv_opt "QCHECK_SEED" with
       | None -> default_seed
       | Some v -> (
           match int_of_string_opt (String.trim v) with
           | Some s -> s
           | None -> invalid_arg ("QCHECK_SEED is not an integer: " ^ v))
     in
     Printf.printf "qcheck seed: %d\n%!" s;
     s)

let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| Lazy.force seed |]) t

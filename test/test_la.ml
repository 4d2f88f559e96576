(* Tests for the linear-algebra substrate (PETSc KSP substitute). *)

open Opp_la

let check_float = Alcotest.(check (float 1e-12))

let test_vec_ops () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; -1.0; 0.5 |] in
  check_float "dot" 3.5 (Vec.dot x y);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 x);
  let y' = Array.copy y in
  Vec.axpy 2.0 x y';
  check_float "axpy" 6.0 y'.(0);
  check_float "axpy" 3.0 y'.(1);
  let z = Vec.create 3 in
  Vec.mul_pointwise x y z;
  check_float "mul_pointwise" 4.0 z.(0);
  check_float "norm_inf" 4.0 (Vec.norm_inf y)

let test_vec_mismatch () =
  Alcotest.check_raises "dot mismatch" (Invalid_argument "Vec.dot: length mismatch") (fun () ->
      ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]))

let test_csr_assembly () =
  let m = Csr.of_triplets 3 [ (0, 0, 2.0); (0, 1, 1.0); (1, 1, 3.0); (2, 2, 4.0); (0, 0, 1.0) ] in
  check_float "duplicate summed" 3.0 (Csr.get m 0 0);
  check_float "off-diagonal" 1.0 (Csr.get m 0 1);
  check_float "missing entry is zero" 0.0 (Csr.get m 1 0);
  Alcotest.(check int) "nnz after merge" 4 (Csr.nnz m)

let test_csr_spmv () =
  (* [[2 1 0][1 3 0][0 0 4]] x [1 2 3] = [4 7 12] *)
  let m =
    Csr.of_triplets 3 [ (0, 0, 2.0); (0, 1, 1.0); (1, 0, 1.0); (1, 1, 3.0); (2, 2, 4.0) ]
  in
  let y = Vec.create 3 in
  Csr.spmv m [| 1.0; 2.0; 3.0 |] y;
  check_float "spmv row 0" 4.0 y.(0);
  check_float "spmv row 1" 7.0 y.(1);
  check_float "spmv row 2" 12.0 y.(2)

let test_csr_pattern_reuse () =
  let m = Csr.of_triplets 2 [ (0, 0, 1.0); (1, 1, 1.0); (0, 1, 0.0) ] in
  Csr.zero_values m;
  Csr.add_at m 0 1 5.0;
  check_float "add_at" 5.0 (Csr.get m 0 1);
  check_float "zeroed diag" 0.0 (Csr.get m 0 0);
  Alcotest.check_raises "add outside pattern"
    (Invalid_argument "Csr.add_at: (1,0) not in pattern") (fun () -> Csr.add_at m 1 0 1.0)

let test_cg_identity () =
  let m = Csr.of_triplets 4 (List.init 4 (fun i -> (i, i, 1.0))) in
  let b = [| 1.0; -2.0; 3.0; 0.5 |] and x = Vec.create 4 in
  let st = Cg.solve m ~b ~x in
  Alcotest.(check bool) "converged" true st.Cg.converged;
  Array.iteri (fun i bi -> check_float "solution" bi x.(i)) b

let test_cg_laplacian () =
  (* 1-D Dirichlet Laplacian, n = 20: compare to a dense-free exact
     solution u(i) = i*(n+1-i)/2 for f = 1. *)
  let n = 20 in
  let triplets = ref [] in
  for i = 0 to n - 1 do
    triplets := (i, i, 2.0) :: !triplets;
    if i > 0 then triplets := (i, i - 1, -1.0) :: !triplets;
    if i < n - 1 then triplets := (i, i + 1, -1.0) :: !triplets
  done;
  let m = Csr.of_triplets n !triplets in
  let b = Array.make n 1.0 and x = Vec.create n in
  let st = Cg.solve ~rtol:1e-12 m ~b ~x in
  Alcotest.(check bool) "converged" true st.Cg.converged;
  for i = 0 to n - 1 do
    let exact = float_of_int ((i + 1) * (n - i)) /. 2.0 in
    Alcotest.(check (float 1e-8)) (Printf.sprintf "u(%d)" i) exact x.(i)
  done

let test_cg_warm_start () =
  let m = Csr.of_triplets 3 [ (0, 0, 2.0); (1, 1, 2.0); (2, 2, 2.0) ] in
  let b = [| 2.0; 4.0; 6.0 |] in
  let x = [| 1.0; 2.0; 3.0 |] in
  (* exact guess *)
  let st = Cg.solve m ~b ~x in
  Alcotest.(check int) "zero iterations from exact guess" 0 st.Cg.iterations;
  Alcotest.(check bool) "converged" true st.Cg.converged

let test_dense_inv () =
  let a = [| [| 2.0; 1.0; 0.0 |]; [| 1.0; 3.0; 1.0 |]; [| 0.0; 1.0; 2.0 |] |] in
  let ai = Dense.inv a in
  (* A * A^-1 = I *)
  for i = 0 to 2 do
    for j = 0 to 2 do
      let s = ref 0.0 in
      for k = 0 to 2 do
        s := !s +. (a.(i).(k) *. ai.(k).(j))
      done;
      Alcotest.(check (float 1e-12)) "A*inv(A)=I" (if i = j then 1.0 else 0.0) !s
    done
  done

let test_dense_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "singular") (fun () -> ignore (Dense.inv a))

let test_solve3 () =
  let a = [| [| 1.0; 0.0; 0.0 |]; [| 0.0; 2.0; 0.0 |]; [| 1.0; 1.0; 1.0 |] |] in
  let x = Dense.solve3 a [| 3.0; 4.0; 10.0 |] in
  check_float "x" 3.0 x.(0);
  check_float "y" 2.0 x.(1);
  check_float "z" 5.0 x.(2)

let prop_cg_solves_spd =
  (* random diagonally dominant symmetric systems are SPD; CG must solve
     them to the requested tolerance *)
  QCheck.Test.make ~name:"cg solves random SPD systems" ~count:30
    QCheck.(pair (int_range 2 12) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Opp_core.Rng.create seed in
      let a = Array.make_matrix n n 0.0 in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let v = Opp_core.Rng.float rng -. 0.5 in
          a.(i).(j) <- v;
          a.(j).(i) <- v
        done
      done;
      for i = 0 to n - 1 do
        let row_sum = Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 a.(i) in
        a.(i).(i) <- row_sum +. 1.0
      done;
      let triplets = ref [] in
      Array.iteri
        (fun i row -> Array.iteri (fun j v -> if v <> 0.0 then triplets := (i, j, v) :: !triplets) row)
        a;
      let m = Csr.of_triplets n !triplets in
      let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
      let b = Vec.create n in
      Csr.spmv m x_true b;
      let x = Vec.create n in
      let st = Cg.solve ~rtol:1e-12 m ~b ~x in
      st.Cg.converged
      && Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-6) x x_true)

let prop_of_elements_matches_triplets =
  (* element assembly must store exactly the bits of the triplet path
     fed the same entries, generated element by element *)
  QCheck.Test.make ~name:"csr of_elements is bit-identical to of_triplets" ~count:30
    QCheck.(quad (int_range 1 4) (int_range 1 4) (int_range 1 4) (int_range 0 10_000))
    (fun (nx, ny, nz, seed) ->
      let m = Opp_mesh.Tet_mesh.build ~nx ~ny ~nz ~lx:1.0 ~ly:1.0 ~lz:2.0 in
      let n = m.Opp_mesh.Tet_mesh.nnodes and ne = m.Opp_mesh.Tet_mesh.ncells in
      let nodes = m.Opp_mesh.Tet_mesh.cell_nodes in
      let rng = Opp_core.Rng.create seed in
      (* signed zeros among the values: a slot's sum must keep their sign *)
      let vals =
        Array.init (16 * ne) (fun _ ->
            match Opp_core.Rng.int rng 8 with
            | 0 -> 0.0
            | 1 -> -0.0
            | _ -> Opp_core.Rng.gaussian rng)
      in
      let trip = ref [] in
      for e = 0 to ne - 1 do
        for i = 0 to 3 do
          for j = 0 to 3 do
            let v = vals.((16 * e) + (4 * i) + j) in
            trip := (nodes.((4 * e) + i), nodes.((4 * e) + j), v) :: !trip
          done
        done
      done;
      let want = Csr.of_triplets n !trip in
      let got =
        Csr.of_elements n ~nelems:ne ~arity:4 ~elem_nodes:nodes ~value:(fun e i j ->
            vals.((16 * e) + (4 * i) + j))
      in
      let bits = Int64.bits_of_float in
      let same_entries =
        List.for_all (fun (r, c, _) -> bits (Csr.get want r c) = bits (Csr.get got r c)) !trip
      in
      let x = Array.init n (fun _ -> Opp_core.Rng.gaussian rng) in
      let y1 = Vec.create n and y2 = Vec.create n in
      Csr.spmv want x y1;
      Csr.spmv got x y2;
      Csr.nnz want = Csr.nnz got
      && same_entries
      && Array.for_all2 (fun a b -> bits a = bits b) y1 y2)

let test_of_elements_rejects_bad_input () =
  let value _ _ _ = 1.0 in
  Alcotest.check_raises "node id out of range"
    (Invalid_argument "Csr.of_elements: element 1, local node 0: node 3 out of [0, 3)") (fun () ->
      ignore (Csr.of_elements 3 ~nelems:2 ~arity:2 ~elem_nodes:[| 0; 1; 3; 2 |] ~value));
  Alcotest.check_raises "connectivity length"
    (Invalid_argument "Csr.of_elements: elem_nodes has length 3, expected 4 (2 elements x 2)")
    (fun () -> ignore (Csr.of_elements 3 ~nelems:2 ~arity:2 ~elem_nodes:[| 0; 1; 2 |] ~value))

let test_of_elements_small () =
  (* two 1-D elements sharing node 1: the classic [1 -1; -1 1] blocks *)
  let block i j = if i = j then 1.0 else -1.0 in
  let m =
    Csr.of_elements 3 ~nelems:2 ~arity:2 ~elem_nodes:[| 0; 1; 1; 2 |] ~value:(fun _ i j ->
        block i j)
  in
  Alcotest.(check int) "nnz" 7 (Csr.nnz m);
  Alcotest.(check (array (array (float 0.0))))
    "dense"
    [| [| 1.0; -1.0; 0.0 |]; [| -1.0; 2.0; -1.0 |]; [| 0.0; -1.0; 1.0 |] |]
    (Csr.to_dense m)

let suite =
  [
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "vec mismatch raises" `Quick test_vec_mismatch;
    Alcotest.test_case "csr assembly merges duplicates" `Quick test_csr_assembly;
    Alcotest.test_case "csr spmv" `Quick test_csr_spmv;
    Alcotest.test_case "csr pattern reuse" `Quick test_csr_pattern_reuse;
    Alcotest.test_case "csr of_elements: 1-D blocks" `Quick test_of_elements_small;
    Alcotest.test_case "csr of_elements rejects bad input" `Quick
      test_of_elements_rejects_bad_input;
    Qc.to_alcotest prop_of_elements_matches_triplets;
    Alcotest.test_case "cg identity" `Quick test_cg_identity;
    Alcotest.test_case "cg 1-D laplacian" `Quick test_cg_laplacian;
    Alcotest.test_case "cg warm start" `Quick test_cg_warm_start;
    Alcotest.test_case "dense inverse" `Quick test_dense_inv;
    Alcotest.test_case "dense singular raises" `Quick test_dense_singular;
    Alcotest.test_case "cramer solve3" `Quick test_solve3;
    Qc.to_alcotest prop_cg_solves_spd;
  ]

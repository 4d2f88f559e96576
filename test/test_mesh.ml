(* Tests for the mesh substrate: tet geometry, the Kuhn duct mesh,
   the periodic cuboid, the structured overlay, and mesh I/O. *)

open Opp_mesh

let check_float = Alcotest.(check (float 1e-12))

let unit_tet = [| [| 0.0; 0.0; 0.0 |]; [| 1.0; 0.0; 0.0 |]; [| 0.0; 1.0; 0.0 |]; [| 0.0; 0.0; 1.0 |] |]

let test_tet_volume () =
  check_float "unit tet volume" (1.0 /. 6.0)
    (Geom.tet_volume unit_tet.(0) unit_tet.(1) unit_tet.(2) unit_tet.(3));
  (* swapping two vertices flips the sign but not the magnitude *)
  check_float "signed volume flips" (-1.0 /. 6.0)
    (Geom.tet_volume_signed unit_tet.(0) unit_tet.(2) unit_tet.(1) unit_tet.(3))

let test_barycentric_partition_of_unity () =
  let coeff = Geom.bary_coefficients unit_tet in
  let lc = Array.make 4 0.0 in
  Geom.barycentric coeff ~off:0 ~x:0.2 ~y:0.3 ~z:0.1 lc;
  check_float "sums to one" 1.0 (lc.(0) +. lc.(1) +. lc.(2) +. lc.(3));
  (* interpolation property at vertices *)
  Array.iteri
    (fun i v ->
      Geom.barycentric coeff ~off:0 ~x:v.(0) ~y:v.(1) ~z:v.(2) lc;
      Array.iteri (fun j w -> check_float "delta_ij" (if i = j then 1.0 else 0.0) w) lc)
    unit_tet

let test_inside_and_exit_face () =
  let coeff = Geom.bary_coefficients unit_tet in
  let lc = Array.make 4 0.0 in
  Geom.barycentric coeff ~off:0 ~x:0.25 ~y:0.25 ~z:0.25 lc;
  Alcotest.(check bool) "centroid inside" true (Geom.inside lc);
  Geom.barycentric coeff ~off:0 ~x:(-0.5) ~y:0.25 ~z:0.25 lc;
  Alcotest.(check bool) "outside -x" false (Geom.inside lc);
  (* leaving through -x means lc of vertex 1 (the +x vertex) is most negative *)
  Alcotest.(check int) "exit face" 1 (Geom.most_negative lc)

let test_triangle_area () =
  let area, n = Geom.triangle_area_normal [| 0.; 0.; 0. |] [| 2.; 0.; 0. |] [| 0.; 2.; 0. |] in
  check_float "area" 2.0 area;
  check_float "unit normal z" 1.0 (Float.abs n.(2))

let test_duct_mesh_counts () =
  let m = Tet_mesh.build ~nx:3 ~ny:2 ~nz:4 ~lx:0.3 ~ly:0.2 ~lz:0.4 in
  Alcotest.(check int) "cells = 6 per hex" (6 * 3 * 2 * 4) m.Tet_mesh.ncells;
  Alcotest.(check int) "nodes" (4 * 3 * 5) m.Tet_mesh.nnodes

let test_duct_mesh_volume () =
  let m = Tet_mesh.build ~nx:3 ~ny:2 ~nz:4 ~lx:0.3 ~ly:0.2 ~lz:0.4 in
  Alcotest.(check (float 1e-12)) "tet volumes tile the box" (0.3 *. 0.2 *. 0.4)
    (Tet_mesh.total_volume m);
  Array.iter (fun v -> Alcotest.(check bool) "positive volume" true (v > 0.0)) m.Tet_mesh.cell_volume;
  (* node volumes also tile the box *)
  Alcotest.(check (float 1e-12)) "node volumes tile the box" (0.3 *. 0.2 *. 0.4)
    (Array.fold_left ( +. ) 0.0 m.Tet_mesh.node_volume)

let test_duct_adjacency_symmetric () =
  let m = Tet_mesh.build ~nx:2 ~ny:2 ~nz:2 ~lx:1.0 ~ly:1.0 ~lz:1.0 in
  let boundary = ref 0 in
  for c = 0 to m.Tet_mesh.ncells - 1 do
    for i = 0 to 3 do
      let n = m.Tet_mesh.cell_cell.((4 * c) + i) in
      if n = -1 then incr boundary
      else begin
        (* the neighbour must point back at us through some face *)
        let back = ref false in
        for j = 0 to 3 do
          if m.Tet_mesh.cell_cell.((4 * n) + j) = c then back := true
        done;
        Alcotest.(check bool) "adjacency is symmetric" true !back
      end
    done
  done;
  (* surface of the box: each unit square face is two triangles; total
     boundary faces = 2*(nx*ny + ny*nz + nx*nz)*2 *)
  Alcotest.(check int) "boundary face count" (2 * 2 * (4 + 4 + 4)) !boundary

let test_duct_inlet_faces () =
  let nx, ny, nz = (3, 2, 4) in
  let m = Tet_mesh.build ~nx ~ny ~nz ~lx:0.3 ~ly:0.2 ~lz:0.4 in
  (* the inlet plane is nx*ny squares, each covered by two tet faces *)
  Alcotest.(check int) "inlet faces" (2 * nx * ny) (Array.length m.Tet_mesh.inlet_faces);
  let total_area =
    Array.fold_left (fun acc f -> acc +. f.Tet_mesh.f_area) 0.0 m.Tet_mesh.inlet_faces
  in
  Alcotest.(check (float 1e-12)) "inlet area" (0.3 *. 0.2) total_area;
  Array.iter
    (fun f -> Alcotest.(check (float 1e-12)) "inlet normal +z" 1.0 f.Tet_mesh.f_normal.(2))
    m.Tet_mesh.inlet_faces

let test_duct_node_kinds () =
  let m = Tet_mesh.build ~nx:4 ~ny:4 ~nz:6 ~lx:1.0 ~ly:1.0 ~lz:2.0 in
  let count k = Array.fold_left (fun acc v -> if v = k then acc + 1 else acc) 0 m.Tet_mesh.node_kind in
  (* interior of inlet plane: (nx-1)*(ny-1) nodes *)
  Alcotest.(check int) "inlet nodes" (3 * 3) (count Tet_mesh.Inlet);
  Alcotest.(check int) "outlet nodes" (3 * 3) (count Tet_mesh.Outlet);
  (* walls: all nodes on x/y boundary across all z layers *)
  Alcotest.(check int) "wall nodes" (((5 * 5) - (3 * 3)) * 7) (count Tet_mesh.Wall);
  Alcotest.(check int) "interior nodes" (3 * 3 * 5) (count Tet_mesh.Interior)

let test_locate_brute () =
  let m = Tet_mesh.build ~nx:2 ~ny:2 ~nz:2 ~lx:1.0 ~ly:1.0 ~lz:1.0 in
  (match Tet_mesh.locate_brute m ~x:0.3 ~y:0.6 ~z:0.9 with
  | Some c -> Alcotest.(check bool) "cell in range" true (c >= 0 && c < m.Tet_mesh.ncells)
  | None -> Alcotest.fail "interior point not located");
  Alcotest.(check bool) "outside not located" true
    (Tet_mesh.locate_brute m ~x:1.5 ~y:0.5 ~z:0.5 = None)

let prop_barycentric_consistent_with_volume =
  (* for random points inside the unit tet, barycentric coords are in
     [0,1] and reproduce the point as a convex combination *)
  QCheck.Test.make ~name:"barycentric reconstructs positions" ~count:100
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Opp_core.Rng.create seed in
      let coeff = Geom.bary_coefficients unit_tet in
      let lc = Array.make 4 0.0 in
      (* rejection-sample an interior point *)
      let rec sample () =
        let x = Opp_core.Rng.float rng and y = Opp_core.Rng.float rng in
        let z = Opp_core.Rng.float rng in
        if x +. y +. z <= 1.0 then (x, y, z) else sample ()
      in
      let x, y, z = sample () in
      Geom.barycentric coeff ~off:0 ~x ~y ~z lc;
      let rx = ref 0.0 and ry = ref 0.0 and rz = ref 0.0 in
      Array.iteri
        (fun i w ->
          rx := !rx +. (w *. unit_tet.(i).(0));
          ry := !ry +. (w *. unit_tet.(i).(1));
          rz := !rz +. (w *. unit_tet.(i).(2)))
        lc;
      Geom.inside lc
      && Float.abs (!rx -. x) < 1e-10
      && Float.abs (!ry -. y) < 1e-10
      && Float.abs (!rz -. z) < 1e-10)

let test_hex_mesh_periodic () =
  let m = Hex_mesh.build ~nx:4 ~ny:3 ~nz:2 ~lx:4.0 ~ly:3.0 ~lz:2.0 in
  Alcotest.(check int) "cells" 24 m.Hex_mesh.ncells;
  let c = Hex_mesh.cell_id m 0 0 0 in
  Alcotest.(check int) "wrap -x" (Hex_mesh.cell_id m 3 0 0)
    (Hex_mesh.neighbour m c ~dx:(-1) ~dy:0 ~dz:0);
  Alcotest.(check int) "wrap -y -z" (Hex_mesh.cell_id m 0 2 1)
    (Hex_mesh.neighbour m c ~dx:0 ~dy:(-1) ~dz:(-1));
  Alcotest.(check int) "self slot" c (Hex_mesh.neighbour m c ~dx:0 ~dy:0 ~dz:0);
  (* ijk round trip *)
  for cc = 0 to m.Hex_mesh.ncells - 1 do
    let i, j, k = Hex_mesh.cell_ijk m cc in
    Alcotest.(check int) "ijk roundtrip" cc (Hex_mesh.cell_id m i j k)
  done

let test_hex_face_neighbours () =
  let m = Hex_mesh.build ~nx:3 ~ny:3 ~nz:3 ~lx:1.0 ~ly:1.0 ~lz:1.0 in
  let f = Hex_mesh.face_neighbours m in
  let c = Hex_mesh.cell_id m 1 1 1 in
  Alcotest.(check int) "+x face" (Hex_mesh.cell_id m 2 1 1) f.((6 * c) + 1);
  Alcotest.(check int) "-z face" (Hex_mesh.cell_id m 1 1 0) f.((6 * c) + 4);
  (* every neighbour relation is symmetric: +x of c has c as -x *)
  for cc = 0 to m.Hex_mesh.ncells - 1 do
    let nb = f.((6 * cc) + 1) in
    Alcotest.(check int) "symmetry" cc f.(6 * nb)
  done

let test_overlay_locates () =
  let m = Tet_mesh.build ~nx:3 ~ny:3 ~nz:6 ~lx:1.0 ~ly:1.0 ~lz:2.0 in
  let ov = Overlay.of_tet_mesh ~bins:(8, 8, 16) m in
  (* overlay must send interior points to a nearby (<= few hops) cell;
     here we check it lands on the exact containing cell for bin centres
     and a valid cell elsewhere *)
  let lc = Array.make 4 0.0 in
  let ok = ref 0 and total = ref 0 in
  let rng = Opp_core.Rng.create 7 in
  for _ = 1 to 200 do
    let x = Opp_core.Rng.float rng *. 0.999 and y = Opp_core.Rng.float rng *. 0.999 in
    let z = Opp_core.Rng.float rng *. 1.999 in
    let c = Overlay.locate ov ~x ~y ~z in
    incr total;
    Alcotest.(check bool) "locate returns a cell" true (c >= 0 && c < m.Tet_mesh.ncells);
    Geom.barycentric m.Tet_mesh.cell_bary ~off:(16 * c) ~x ~y ~z lc;
    if Geom.inside lc then incr ok
  done;
  (* the overlay is only a hint (direct-hop finishes with a short
     multi-hop walk), but a good fraction should land exactly *)
  Alcotest.(check bool)
    (Printf.sprintf "enough hints exact (%d/%d)" !ok !total)
    true
    (float_of_int !ok /. float_of_int !total > 0.3);
  Alcotest.(check int) "outside the box" (-1) (Overlay.locate ov ~x:(-0.1) ~y:0.5 ~z:0.5)

let test_overlay_rank_map () =
  let m = Tet_mesh.build ~nx:2 ~ny:2 ~nz:4 ~lx:1.0 ~ly:1.0 ~lz:2.0 in
  let ov = Overlay.of_tet_mesh ~bins:(4, 4, 8) m in
  (* two ranks split along z at the midpoint *)
  let cell_rank =
    Array.init m.Tet_mesh.ncells (fun c ->
        if m.Tet_mesh.cell_centroid.((3 * c) + 2) < 1.0 then 0 else 1)
  in
  Overlay.assign_ranks ov ~cell_rank;
  Alcotest.(check int) "front is rank 0" 0 (Overlay.rank_of ov ~x:0.5 ~y:0.5 ~z:0.25);
  Alcotest.(check int) "back is rank 1" 1 (Overlay.rank_of ov ~x:0.5 ~y:0.5 ~z:1.75);
  Alcotest.(check bool) "bookkeeping memory counted" true (Overlay.memory_bytes ov > 0)

let test_mesh_io_roundtrip () =
  let m = Tet_mesh.build ~nx:2 ~ny:2 ~nz:3 ~lx:0.2 ~ly:0.2 ~lz:0.3 in
  let path = Filename.temp_file "oppic_mesh" ".dat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Mesh_io.write_tet m path;
      let raw = Mesh_io.read_raw path in
      Alcotest.(check int) "nodes" m.Tet_mesh.nnodes raw.Mesh_io.nnodes;
      Alcotest.(check int) "cells" m.Tet_mesh.ncells raw.Mesh_io.ncells;
      Array.iteri
        (fun i v -> Alcotest.(check (float 0.0)) "coords exact" v raw.Mesh_io.node_pos.(i))
        m.Tet_mesh.node_pos;
      Alcotest.(check bool) "connectivity equal" true (raw.Mesh_io.cell_nodes = m.Tet_mesh.cell_nodes))

let test_mesh_io_errors () =
  let path = Filename.temp_file "oppic_bad" ".dat" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "nodes 1\n0 0 0\ncells 1\n0 0 0 9\n";
      close_out oc;
      Alcotest.(check bool) "node range checked" true
        (try
           ignore (Mesh_io.read_raw path);
           false
         with Mesh_io.Parse_error _ -> true))

let suite =
  [
    Alcotest.test_case "tet volume" `Quick test_tet_volume;
    Alcotest.test_case "barycentric partition of unity" `Quick test_barycentric_partition_of_unity;
    Alcotest.test_case "inside test and exit face" `Quick test_inside_and_exit_face;
    Alcotest.test_case "triangle area/normal" `Quick test_triangle_area;
    Alcotest.test_case "duct: counts" `Quick test_duct_mesh_counts;
    Alcotest.test_case "duct: volumes tile the box" `Quick test_duct_mesh_volume;
    Alcotest.test_case "duct: adjacency symmetric" `Quick test_duct_adjacency_symmetric;
    Alcotest.test_case "duct: inlet faces" `Quick test_duct_inlet_faces;
    Alcotest.test_case "duct: node classification" `Quick test_duct_node_kinds;
    Alcotest.test_case "duct: brute-force locate" `Quick test_locate_brute;
    Qc.to_alcotest prop_barycentric_consistent_with_volume;
    Alcotest.test_case "hex: periodic connectivity" `Quick test_hex_mesh_periodic;
    Alcotest.test_case "hex: face neighbours" `Quick test_hex_face_neighbours;
    Alcotest.test_case "overlay: locate" `Quick test_overlay_locates;
    Alcotest.test_case "overlay: rank map" `Quick test_overlay_rank_map;
    Alcotest.test_case "mesh io: roundtrip" `Quick test_mesh_io_roundtrip;
    Alcotest.test_case "mesh io: errors" `Quick test_mesh_io_errors;
  ]

(** Compressed-sparse-row matrix, assembled from coordinate triplets
    or straight from element connectivity.

    [of_triplets] sorts (row, col, value) triplets and sums duplicates.
    [of_elements] (ComputeJMatrix in Mini-FEM-PIC) builds the pattern
    from node-to-element incidence and sums each element's dense block
    in place, in the order [of_triplets] would have used for the same
    entries generated element by element, so both give the same bits.
    A fixed sparsity pattern can be reused across Newton iterations via
    [zero_values] + [add_at]. *)

type t = {
  n : int;  (** square dimension *)
  row_ptr : int array;  (** length n+1 *)
  col_idx : int array;
  values : float array;
}

let nrows m = m.n
let nnz m = m.row_ptr.(m.n)

let of_triplets n triplets =
  if n < 0 then invalid_arg "Csr.of_triplets: negative dimension";
  List.iter
    (fun (r, c, _) ->
      if r < 0 || r >= n || c < 0 || c >= n then
        invalid_arg (Printf.sprintf "Csr.of_triplets: entry (%d,%d) out of %dx%d" r c n n))
    triplets;
  let sorted =
    List.sort (fun (r1, c1, _) (r2, c2, _) -> if r1 <> r2 then compare r1 r2 else compare c1 c2)
      triplets
  in
  (* merge duplicates *)
  let merged = ref [] in
  List.iter
    (fun (r, c, v) ->
      match !merged with
      | (r', c', v') :: rest when r = r' && c = c' -> merged := (r, c, v +. v') :: rest
      | _ -> merged := (r, c, v) :: !merged)
    sorted;
  let entries = Array.of_list (List.rev !merged) in
  let nnz = Array.length entries in
  let row_ptr = Array.make (n + 1) 0 in
  Array.iter (fun (r, _, _) -> row_ptr.(r + 1) <- row_ptr.(r + 1) + 1) entries;
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let col_idx = Array.make nnz 0 and values = Array.make nnz 0.0 in
  Array.iteri
    (fun k (_, c, v) ->
      col_idx.(k) <- c;
      values.(k) <- v)
    entries;
  { n; row_ptr; col_idx; values }

let of_elements n ~nelems ~arity ~elem_nodes ~value =
  if n < 0 || nelems < 0 || arity < 0 then
    invalid_arg "Csr.of_elements: negative dimension, element count or arity";
  if Array.length elem_nodes <> nelems * arity then
    invalid_arg
      (Printf.sprintf "Csr.of_elements: elem_nodes has length %d, expected %d (%d elements x %d)"
         (Array.length elem_nodes) (nelems * arity) nelems arity);
  Array.iteri
    (fun k v ->
      if v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Csr.of_elements: element %d, local node %d: node %d out of [0, %d)"
             (k / arity) (k mod arity) v n))
    elem_nodes;
  (* node -> incident elements, elements ascending within a node *)
  let inc_ptr = Array.make (n + 1) 0 in
  Array.iter (fun v -> inc_ptr.(v + 1) <- inc_ptr.(v + 1) + 1) elem_nodes;
  for i = 0 to n - 1 do
    inc_ptr.(i + 1) <- inc_ptr.(i + 1) + inc_ptr.(i)
  done;
  let inc = Array.make (Array.length elem_nodes) 0 and fill = Array.sub inc_ptr 0 n in
  Array.iteri
    (fun k v ->
      inc.(fill.(v)) <- k / arity;
      fill.(v) <- fill.(v) + 1)
    elem_nodes;
  (* each row's columns: the nodes of its incident elements, once each;
     [seen.(c) = r] marks column c as already in row r *)
  let seen = Array.make n (-1) in
  let iter_row r f =
    for q = inc_ptr.(r) to inc_ptr.(r + 1) - 1 do
      let base = inc.(q) * arity in
      for j = 0 to arity - 1 do
        let c = elem_nodes.(base + j) in
        if seen.(c) <> r then begin
          seen.(c) <- r;
          f c
        end
      done
    done
  in
  let row_ptr = Array.make (n + 1) 0 in
  for r = 0 to n - 1 do
    let len = ref 0 in
    iter_row r (fun _ -> incr len);
    row_ptr.(r + 1) <- row_ptr.(r) + !len
  done;
  Array.fill seen 0 n (-1);
  let col_idx = Array.make row_ptr.(n) 0 in
  for r = 0 to n - 1 do
    let k = ref row_ptr.(r) in
    iter_row r (fun c ->
        (* insertion sort as the row fills *)
        let at = ref !k in
        while !at > row_ptr.(r) && col_idx.(!at - 1) > c do
          col_idx.(!at) <- col_idx.(!at - 1);
          decr at
        done;
        col_idx.(!at) <- c;
        incr k)
  done;
  (* position of column c in row r, which holds it by construction *)
  let slot r c =
    let lo = ref row_ptr.(r) and hi = ref (row_ptr.(r + 1) - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if col_idx.(mid) < c then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* of_triplets' stable sort keeps each slot's contributions in list
     order, i.e. newest generated first, and merges them as v +. acc
     from the first one: walk the elements backwards and do the same.
     -0.0 is the exact additive identity (-0.0 +. v = v for every v,
     +0.0 included), so every slot starts there. *)
  let values = Array.make row_ptr.(n) (-0.0) in
  for e = nelems - 1 downto 0 do
    for i = arity - 1 downto 0 do
      let s_row = slot elem_nodes.((e * arity) + i) in
      for j = arity - 1 downto 0 do
        let k = s_row elem_nodes.((e * arity) + j) in
        values.(k) <- value e i j +. values.(k)
      done
    done
  done;
  { n; row_ptr; col_idx; values }

(** Zero the stored values, keeping the sparsity pattern. *)
let zero_values m = Array.fill m.values 0 (Array.length m.values) 0.0

(** Add [v] at (r, c); the position must exist in the pattern. *)
let add_at m r c v =
  if r < 0 || r >= m.n then invalid_arg "Csr.add_at: row out of range";
  let rec find k =
    if k >= m.row_ptr.(r + 1) then
      invalid_arg (Printf.sprintf "Csr.add_at: (%d,%d) not in pattern" r c)
    else if m.col_idx.(k) = c then k
    else find (k + 1)
  in
  let k = find m.row_ptr.(r) in
  m.values.(k) <- m.values.(k) +. v

let get m r c =
  let rec find k =
    if k >= m.row_ptr.(r + 1) then 0.0
    else if m.col_idx.(k) = c then m.values.(k)
    else find (k + 1)
  in
  find m.row_ptr.(r)

(** y := A x *)
let spmv m x y =
  let { n; row_ptr; col_idx; values } = m in
  if Array.length x <> n || Array.length y <> n then invalid_arg "Csr.spmv: size mismatch";
  for r = 0 to n - 1 do
    let s = ref 0.0 in
    for k = row_ptr.(r) to row_ptr.(r + 1) - 1 do
      s := !s +. (values.(k) *. x.(col_idx.(k)))
    done;
    y.(r) <- !s
  done

(** Reciprocal of the diagonal, for the Jacobi preconditioner; zero
    diagonal entries map to 1.0. *)
let inv_diagonal m =
  Array.init m.n (fun r ->
      let d = get m r r in
      if Float.abs d > 0.0 then 1.0 /. d else 1.0)

let to_dense m =
  let a = Array.make_matrix m.n m.n 0.0 in
  for r = 0 to m.n - 1 do
    for k = m.row_ptr.(r) to m.row_ptr.(r + 1) - 1 do
      a.(r).(m.col_idx.(k)) <- a.(r).(m.col_idx.(k)) +. m.values.(k)
    done
  done;
  a

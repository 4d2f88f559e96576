(** Nonlinear Poisson field solver for Mini-FEM-PIC.

    Solves the electrostatic potential with Boltzmann electrons,

      eps0 K phi = b(rho_ion) - qe n0 exp((phi - phi0)/kTe) V

    by Newton iteration; each linear step J dphi = -F is a
    Jacobi-preconditioned CG over [opp_la]'s CSR SpMV (the PETSc KSP
    substitute). The stiffness matrix K comes from linear tetrahedral
    elements, K_ij = sum_cells V_c (g_i . g_j), with the constant
    shape-function gradients g of {!Opp_mesh.Geom.bary_coefficients}.

    The solver is communication-agnostic: distributed runs pass halo
    exchange / reduction hooks in [comm]; sequential runs use
    {!comm_seq}. Vectors are indexed by local nodes (owned first);
    Dirichlet nodes are masked out of the Krylov space rather than
    eliminated, which keeps the operator symmetric. *)

type comm = {
  owned_nodes : int;  (** nodes [0, owned) are owned by this rank *)
  exchange : float array -> unit;  (** refresh halo copies from owners *)
  reduce : float array -> unit;  (** add halo contributions into owners *)
  allreduce : float -> float;
}

let comm_seq ~nnodes =
  { owned_nodes = nnodes; exchange = ignore; reduce = ignore; allreduce = Fun.id }

type t = {
  nnodes : int;
  stiffness : Opp_la.Csr.t;  (** local K, assembled once *)
  k_diag : float array;  (** diagonal of K, for the Jacobi preconditioner *)
  node_volume : float array;
  active : bool array;  (** false at Dirichlet nodes *)
  comm : comm;
  prm : Params.t;
  (* workspace, allocated once *)
  f : float array;
  dphi : float array;
  jac_diag : float array;  (** diagonal Boltzmann term of the Jacobian *)
  kphi : float array;
  inv_diag : float array;
  r : float array;
  z : float array;
  p : float array;
  jp : float array;
}

type stats = { newton_iterations : int; cg_iterations : int; residual : float; converged : bool }

let check_length name a ~expected ~what =
  if Array.length a <> expected then
    invalid_arg
      (Printf.sprintf "Field_solver.create: %s has length %d, expected %d (%s)" name
         (Array.length a) expected what)

(* ComputeJMatrix: K_ij = sum_cells V_c (g_i . g_j), assembled straight
   from the cell-to-node connectivity. *)
let assemble_stiffness ~nnodes ~ncells ~cell_nodes ~cell_bary ~cell_volume =
  Opp_la.Csr.of_elements nnodes ~nelems:ncells ~arity:4 ~elem_nodes:cell_nodes
    ~value:(fun c i j ->
      let gg = ref 0.0 in
      for d = 1 to 3 do
        gg := !gg +. (cell_bary.((16 * c) + (4 * i) + d) *. cell_bary.((16 * c) + (4 * j) + d))
      done;
      cell_volume.(c) *. !gg)

let create ~nnodes ~ncells ~cell_nodes ~cell_bary ~cell_volume ~node_volume ~active
    ~(comm : comm) (prm : Params.t) =
  check_length "active" active ~expected:nnodes ~what:"nnodes";
  check_length "cell_nodes" cell_nodes ~expected:(4 * ncells) ~what:"4 * ncells";
  check_length "cell_bary" cell_bary ~expected:(16 * ncells) ~what:"16 * ncells";
  check_length "cell_volume" cell_volume ~expected:ncells ~what:"ncells";
  check_length "node_volume" node_volume ~expected:nnodes ~what:"nnodes";
  let stiffness = assemble_stiffness ~nnodes ~ncells ~cell_nodes ~cell_bary ~cell_volume in
  let vec () = Array.make nnodes 0.0 in
  {
    nnodes;
    stiffness;
    k_diag = Array.init nnodes (fun i -> Opp_la.Csr.get stiffness i i);
    node_volume;
    active;
    comm;
    prm;
    f = vec ();
    dphi = vec ();
    jac_diag = vec ();
    kphi = vec ();
    inv_diag = vec ();
    r = vec ();
    z = vec ();
    p = vec ();
    jp = vec ();
  }

(* Distributed SpMV: local rows, then halo-row contributions are pushed
   to owners and owner values copied back out. *)
let spmv_k t x y =
  t.comm.exchange x;
  Opp_la.Csr.spmv t.stiffness x y;
  t.comm.reduce y;
  t.comm.exchange y

let dot_owned t x y =
  let s = ref 0.0 in
  for i = 0 to t.comm.owned_nodes - 1 do
    s := !s +. (x.(i) *. y.(i))
  done;
  t.comm.allreduce !s

(* Boltzmann electron number density, with the exponent clamped so
   vacuum regions (phi << phi0) cannot overflow. *)
let electron_density prm phi =
  let arg = Float.min ((phi -. prm.Params.phi0) /. prm.Params.kte) 25.0 in
  prm.Params.plasma_den *. exp arg

(* Nonlinear residual F(phi) on active nodes; also fills the Jacobian's
   Boltzmann diagonal for the subsequent linear solve. *)
let residual t ~phi ~ion_charge_density =
  spmv_k t phi t.kphi;
  for i = 0 to t.nnodes - 1 do
    if t.active.(i) then begin
      let prm = t.prm in
      let ne = electron_density prm phi.(i) in
      let rho = ion_charge_density.(i) -. (Params.qe *. ne) in
      t.f.(i) <- (Params.eps0 *. t.kphi.(i)) -. (rho *. t.node_volume.(i));
      t.jac_diag.(i) <- Params.qe *. ne /. prm.Params.kte *. t.node_volume.(i)
    end
    else begin
      t.f.(i) <- 0.0;
      t.jac_diag.(i) <- 0.0
    end
  done

(* One masked Jacobi-CG solve of J dphi = -F with
   J x = eps0 K x + diag x, in the workspace. Each iteration is the
   SpMV and three fused passes; every element expression, the
   summation order of each dot over [0, owned) and the order of the
   allreduce calls are those of the textbook loop (r := r - alpha Jp,
   z := M^-1 r, p := z + beta p), so the iterates are bit-identical to
   it. Dirichlet nodes are masked to 0 in r, z and Jp. *)
let linear_solve t =
  let n = t.nnodes and owned = t.comm.owned_nodes in
  let { active; jac_diag; inv_diag; dphi = x; r; z; p; jp; _ } = t in
  let rz = ref 0.0 and rr = ref 0.0 in
  for i = 0 to n - 1 do
    x.(i) <- 0.0;
    r.(i) <- (if active.(i) then -.t.f.(i) else 0.0);
    let d = (Params.eps0 *. t.k_diag.(i)) +. jac_diag.(i) in
    inv_diag.(i) <- (if Float.abs d > 0.0 then 1.0 /. d else 1.0);
    z.(i) <- (if active.(i) then inv_diag.(i) *. r.(i) else 0.0);
    p.(i) <- z.(i);
    if i < owned then begin
      rz := !rz +. (r.(i) *. z.(i));
      rr := !rr +. (r.(i) *. r.(i))
    end
  done;
  let rz = ref (t.comm.allreduce !rz) in
  let r0 = sqrt (t.comm.allreduce !rr) in
  let tol = Float.max (t.prm.Params.cg_rtol *. r0) 1e-300 in
  let res = ref r0 in
  let iters = ref 0 in
  let max_iter = 20 * n in
  while !res > tol && !iters < max_iter do
    spmv_k t p jp;
    (* Jp := eps0 K p + diag p, masked; p . Jp *)
    let pjp = ref 0.0 in
    for i = 0 to n - 1 do
      jp.(i) <- (if active.(i) then (Params.eps0 *. jp.(i)) +. (jac_diag.(i) *. p.(i)) else 0.0);
      if i < owned then pjp := !pjp +. (p.(i) *. jp.(i))
    done;
    let pjp = t.comm.allreduce !pjp in
    if pjp <= 0.0 then iters := max_iter
    else begin
      let alpha = !rz /. pjp in
      (* x += alpha p; r -= alpha Jp; z := M^-1 r, masked; r . z and r . r *)
      let rz' = ref 0.0 and rr = ref 0.0 in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. (alpha *. p.(i));
        r.(i) <- r.(i) +. (-.alpha *. jp.(i));
        z.(i) <- (if active.(i) then inv_diag.(i) *. r.(i) else 0.0);
        if i < owned then begin
          rz' := !rz' +. (r.(i) *. z.(i));
          rr := !rr +. (r.(i) *. r.(i))
        end
      done;
      let rz' = t.comm.allreduce !rz' in
      let beta = rz' /. !rz in
      rz := rz';
      for i = 0 to n - 1 do
        p.(i) <- z.(i) +. (beta *. p.(i))
      done;
      res := sqrt (t.comm.allreduce !rr);
      incr iters
    end
  done;
  !iters

(** Newton-solve the potential in place. [phi] must carry the Dirichlet
    values at inactive nodes on entry (they are never modified).
    [ion_charge_density] is the node charge density deposited by
    particles, C/m^3. *)
let solve t ~(phi : float array) ~(ion_charge_density : float array) =
  let cg_total = ref 0 in
  let newton = ref 0 in
  let fnorm = ref infinity in
  let first_fnorm = ref 0.0 in
  let converged = ref false in
  while (not !converged) && !newton < t.prm.Params.max_newton do
    residual t ~phi ~ion_charge_density;
    fnorm := sqrt (dot_owned t t.f t.f);
    if !newton = 0 then first_fnorm := !fnorm;
    (* tolerance relative to the problem's charge scale and to the
       initial residual (the latter keeps linear problems -- zero
       Boltzmann density -- convergent) *)
    let charge_scale =
      Params.qe
      *. Float.max t.prm.Params.plasma_den 1.0
      *. sqrt (dot_owned t t.node_volume t.node_volume)
    in
    let scale = Float.max charge_scale !first_fnorm in
    if !fnorm <= t.prm.Params.newton_tol *. scale then converged := true
    else begin
      cg_total := !cg_total + linear_solve t;
      for i = 0 to t.nnodes - 1 do
        if t.active.(i) then phi.(i) <- phi.(i) +. t.dphi.(i)
      done;
      t.comm.exchange phi;
      incr newton
    end
  done;
  if !Opp_obs.Metrics.enabled then begin
    Opp_obs.Metrics.set "field.newton_iters" (float_of_int !newton);
    Opp_obs.Metrics.set "field.cg_iters" (float_of_int !cg_total);
    Opp_obs.Metrics.set "field.residual" !fnorm
  end;
  { newton_iterations = !newton; cg_iterations = !cg_total; residual = !fnorm; converged = !converged }

(** Size of the assembled stiffness matrix (nonzeros), for the
    communication/compute models of the evaluation harness. *)
let stiffness_nnz t = Opp_la.Csr.nnz t.stiffness

let node_count t = t.nnodes

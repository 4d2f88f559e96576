(** Nonlinear Poisson field solver for Mini-FEM-PIC: the electrostatic
    potential with Boltzmann electrons,

      eps0 K phi = b(rho_ion) - qe n0 exp((phi - phi0)/kTe) V,

    by Newton iteration over a Jacobi-CG linear solve (the PETSc KSP
    substitute) that allocates nothing per solve.
    Communication-agnostic through [comm] hooks; Dirichlet nodes are
    masked out of the Krylov space, keeping the operator symmetric. *)

type comm = {
  owned_nodes : int;  (** nodes [0, owned) are owned by this rank *)
  exchange : float array -> unit;  (** refresh halo copies from owners *)
  reduce : float array -> unit;  (** add halo contributions into owners *)
  allreduce : float -> float;
}

val comm_seq : nnodes:int -> comm
(** No-op hooks for single-rank runs. *)

type t

type stats = {
  newton_iterations : int;
  cg_iterations : int;
  residual : float;
  converged : bool;
}

val create :
  nnodes:int ->
  ncells:int ->
  cell_nodes:int array ->
  cell_bary:float array ->
  cell_volume:float array ->
  node_volume:float array ->
  active:bool array ->
  comm:comm ->
  Params.t ->
  t
(** Assembles the linear-element stiffness matrix and the solve's
    workspace once; [active] is false at Dirichlet nodes. Raises
    [Invalid_argument] naming the array when [active] or [node_volume]
    is not [nnodes] long, or [cell_nodes], [cell_bary] or [cell_volume]
    is not [4], [16] or [1] times [ncells] long, and naming the entry
    on a node id outside the mesh. *)

val solve : t -> phi:float array -> ion_charge_density:float array -> stats
(** Newton-solve the potential in place. [phi] must carry the
    Dirichlet values at inactive nodes on entry (never modified
    there). With metrics enabled, sets the gauges [field.newton_iters],
    [field.cg_iters] and [field.residual] from the returned stats. *)

val electron_density : Params.t -> float -> float
(** Boltzmann electron density at a potential (exponent clamped). *)

val stiffness_nnz : t -> int
val node_count : t -> int

(** LU decomposition with partial pivoting for complex matrices.

    This is the linear-solve kernel behind the generic truncated-HTM
    closed loop [(I + G(s))^{-1} G(s)] that cross-validates the paper's
    rank-one closed form. *)

exception Singular

type factorization

(** [decompose m] factors the square matrix [m] as [P A = L U].
    @raise Singular if a pivot is (numerically) zero. *)
val decompose : Cmat.t -> factorization

(** [solve_mat f b] solves [A X = B] column-wise. *)
val solve_mat : factorization -> Cmat.t -> Cmat.t

(** [inverse m] is [m^{-1}]. @raise Singular if [m] is singular. *)
val inverse : Cmat.t -> Cmat.t

(** [det m] is the determinant (0 is returned, not raised, when LU
    pivoting hits an exact zero pivot). *)
val det : Cmat.t -> Cx.t

(** [solve_system a b] is [solve (decompose a) b]. *)
val solve_system : Cmat.t -> Cvec.t -> Cvec.t

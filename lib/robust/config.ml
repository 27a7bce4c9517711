(* Runtime knob and thresholds of the robustness layer.

   The strict flag is an atomic so pool workers read a consistent
   value; it is meant to be set once at process start (CLI flag, test
   fixtures) before any parallel work is launched. *)

let strict = Atomic.make false
let set_strict b = Atomic.set strict b
let is_strict () = Atomic.get strict

(* 1-norm condition number above which an LU-backed solve is declared
   numerically singular. 1e12 leaves ~4 trustworthy digits in double
   precision — past that the structured fast path's answer is noise and
   the dense oracle fallback is the honest choice. *)
let max_cond = 1e12

(* Guard threshold for the closed-form feedback denominators (diagonal
   [1+d] and Sherman–Morrison–Woodbury [1 + vᵀu]): the proxy condition
   number [(1 + |vᵀu|) / |1 + vᵀu|] must stay below this. *)
let smw_max_cond = 1e12

let reset () = Atomic.set strict false

exception No_bracket

let bisect ?(tol = 1e-12) ?(max_iter = 200) f a b =
  let fa = f a and fb = f b in
  if Float.equal fa 0.0 then a
  else if Float.equal fb 0.0 then b
  else if fa *. fb > 0.0 then raise No_bracket
  else begin
    let a = ref a and b = ref b and fa = ref fa in
    let count = ref 0 in
    while !b -. !a > tol *. (1.0 +. Float.abs !a) && !count < max_iter do
      incr count;
      let m = 0.5 *. (!a +. !b) in
      let fm = f m in
      if Float.equal fm 0.0 then begin
        a := m;
        b := m
      end
      else if !fa *. fm < 0.0 then b := m
      else begin
        a := m;
        fa := fm
      end
    done;
    0.5 *. (!a +. !b)
  end

let brent ?(tol = 1e-13) ?(max_iter = 200) f a b =
  let fa = f a and fb = f b in
  if Float.equal fa 0.0 then a
  else if Float.equal fb 0.0 then b
  else if fa *. fb > 0.0 then raise No_bracket
  else begin
    let a = ref a and b = ref b and fa = ref fa and fb = ref fb in
    if Float.abs !fa < Float.abs !fb then begin
      let t = !a in
      a := !b;
      b := t;
      let t = !fa in
      fa := !fb;
      fb := t
    end;
    let c = ref !a and fc = ref !fa in
    let d = ref (!b -. !a) and mflag = ref true in
    let iter = ref 0 in
    while Float.abs !fb > 0.0
          && Float.abs (!b -. !a) > tol *. (1.0 +. Float.abs !b)
          && !iter < max_iter do
      incr iter;
      let s =
        if not (Float.equal !fa !fc) && not (Float.equal !fb !fc) then
          (* inverse quadratic interpolation *)
          (!a *. !fb *. !fc /. ((!fa -. !fb) *. (!fa -. !fc)))
          +. (!b *. !fa *. !fc /. ((!fb -. !fa) *. (!fb -. !fc)))
          +. (!c *. !fa *. !fb /. ((!fc -. !fa) *. (!fc -. !fb)))
        else !b -. (!fb *. (!b -. !a) /. (!fb -. !fa))
      in
      let lo = (3.0 *. !a +. !b) /. 4.0 and hi = !b in
      let lo, hi = if lo < hi then (lo, hi) else (hi, lo) in
      let use_bisect =
        s < lo || s > hi
        || (!mflag && Float.abs (s -. !b) >= Float.abs (!b -. !c) /. 2.0)
        || ((not !mflag) && Float.abs (s -. !b) >= Float.abs !d /. 2.0)
      in
      let s = if use_bisect then 0.5 *. (!a +. !b) else s in
      mflag := use_bisect;
      let fs = f s in
      d := !c -. !b;
      c := !b;
      fc := !fb;
      if !fa *. fs < 0.0 then begin
        b := s;
        fb := fs
      end
      else begin
        a := s;
        fa := fs
      end;
      if Float.abs !fa < Float.abs !fb then begin
        let t = !a in
        a := !b;
        b := t;
        let t = !fa in
        fa := !fb;
        fb := t
      end
    done;
    !b
  end

let logspace lo hi n =
  if lo <= 0.0 || hi <= 0.0 then invalid_arg "Optimize.logspace: bounds must be positive";
  if n < 2 then invalid_arg "Optimize.logspace: need at least 2 points";
  let llo = log lo and lhi = log hi in
  Array.init n (fun i ->
      exp (llo +. ((lhi -. llo) *. float_of_int i /. float_of_int (n - 1))))

let scan_crossings ?(steps = 400) f ~lo ~hi =
  let xs = logspace lo hi steps in
  let out = ref [] in
  let prev_x = ref xs.(0) and prev_f = ref (f xs.(0)) in
  for i = 1 to steps - 1 do
    let x = xs.(i) in
    let fx = f x in
    if Float.is_finite !prev_f && Float.is_finite fx && !prev_f *. fx <= 0.0
       && not (Float.equal !prev_f 0.0 && Float.equal fx 0.0)
    then out := (!prev_x, x) :: !out;
    prev_x := x;
    prev_f := fx
  done;
  List.rev !out

let find_first_crossing ?steps f ~lo ~hi =
  match scan_crossings ?steps f ~lo ~hi with
  | [] -> None
  | (a, b) :: _ -> Some (brent f a b)

let find_all_crossings ?steps f ~lo ~hi =
  List.map (fun (a, b) -> brent f a b) (scan_crossings ?steps f ~lo ~hi)

let golden_min ?(tol = 1e-10) f a b =
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let a = ref a and b = ref b in
  let x1 = ref (!b -. (phi *. (!b -. !a))) in
  let x2 = ref (!a +. (phi *. (!b -. !a))) in
  let f1 = ref (f !x1) and f2 = ref (f !x2) in
  while !b -. !a > tol *. (1.0 +. Float.abs !a) do
    if !f1 < !f2 then begin
      b := !x2;
      x2 := !x1;
      f2 := !f1;
      x1 := !b -. (phi *. (!b -. !a));
      f1 := f !x1
    end
    else begin
      a := !x1;
      x1 := !x2;
      f1 := !f2;
      x2 := !a +. (phi *. (!b -. !a));
      f2 := f !x2
    end
  done;
  0.5 *. (!a +. !b)

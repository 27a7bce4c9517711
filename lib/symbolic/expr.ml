type t =
  | Num of float
  | Sym of string
  | Add of t list
  | Mul of t list
  | Pow of t * int
  | Coth of t

let num x = Num x
let sym s = Sym s
let zero = Num 0.0
let one = Num 1.0

let is_num = function Num _ -> true | _ -> false
let num_value = function
  | Num x -> x
  | _ -> invalid_arg "Expr.num_value: not a numeric constant"

let sum terms =
  let flat =
    List.concat_map (function Add ts -> ts | e -> [ e ]) terms
  in
  let constant, rest =
    List.fold_left
      (fun (c, acc) e -> if is_num e then (c +. num_value e, acc) else (c, e :: acc))
      (0.0, []) flat
  in
  let rest = List.rev rest in
  let terms =
    if Float.equal constant 0.0 then rest else rest @ [ Num constant ]
  in
  match terms with [] -> zero | [ e ] -> e | ts -> Add ts

let add a b = sum [ a; b ]

let prod factors =
  let flat =
    List.concat_map (function Mul fs -> fs | e -> [ e ]) factors
  in
  let constant, rest =
    List.fold_left
      (fun (c, acc) e -> if is_num e then (c *. num_value e, acc) else (c, e :: acc))
      (1.0, []) flat
  in
  let rest = List.rev rest in
  if Float.equal constant 0.0 then zero
  else begin
    let factors =
      if Float.equal constant 1.0 then rest else Num constant :: rest
    in
    match factors with [] -> one | [ e ] -> e | fs -> Mul fs
  end

let mul a b = prod [ a; b ]
let neg e = mul (Num (-1.0)) e
let sub a b = add a (neg b)

let pow base n =
  match (base, n) with
  | _, 0 -> one
  | e, 1 -> e
  | Num x, n -> Num (x ** float_of_int n)
  | Pow (b, m), n -> Pow (b, m * n)
  | e, n -> Pow (e, n)

let inv e = pow e (-1)
let div a b = mul a (inv b)

let coth e = Coth e

let rec eval env e =
  let open Numeric in
  match e with
  | Num x -> Cx.of_float x
  | Sym s -> env s
  | Add ts -> List.fold_left (fun acc t -> Cx.add acc (eval env t)) Cx.zero ts
  | Mul fs -> List.fold_left (fun acc f -> Cx.mul acc (eval env f)) Cx.one fs
  | Pow (b, n) -> Cx.pow_int (eval env b) n
  | Coth x -> Special.coth (eval env x)

let eval_real env e =
  let z = eval (fun s -> Numeric.Cx.of_float (env s)) e in
  if Float.abs (Numeric.Cx.im z) > 1e-9 *. (1.0 +. Numeric.Cx.abs z) then
    invalid_arg "Expr.eval_real: expression has an imaginary part";
  Numeric.Cx.re z

let rec derivative ~wrt e =
  match e with
  | Num _ -> zero
  | Sym s -> if s = wrt then one else zero
  | Add ts -> sum (List.map (derivative ~wrt) ts)
  | Mul fs ->
      (* product rule over the n-ary product *)
      sum
        (List.mapi
           (fun i _ ->
             prod (List.mapi (fun k f -> if k = i then derivative ~wrt f else f) fs))
           fs)
  | Pow (b, n) ->
      prod [ Num (float_of_int n); pow b (n - 1); derivative ~wrt b ]
  | Coth x ->
      (* d coth = 1 - coth^2 *)
      mul (sub one (pow (coth x) 2)) (derivative ~wrt x)

let rec subst name replacement e =
  match e with
  | Num _ -> e
  | Sym s -> if s = name then replacement else e
  | Add ts -> sum (List.map (subst name replacement) ts)
  | Mul fs -> prod (List.map (subst name replacement) fs)
  | Pow (b, n) -> pow (subst name replacement b) n
  | Coth x -> coth (subst name replacement x)

let symbols e =
  let rec go acc = function
    | Num _ -> acc
    | Sym s -> s :: acc
    | Add ts | Mul ts -> List.fold_left go acc ts
    | Pow (b, _) -> go acc b
    | Coth x -> go acc x
  in
  List.sort_uniq compare (go [] e)

(* [Float.equal] on constants: a NaN constant equals itself, which the
   polymorphic [=] denies *)
let rec equal a b =
  match (a, b) with
  | Num x, Num y -> Float.equal x y
  | Sym x, Sym y -> String.equal x y
  | Add xs, Add ys | Mul xs, Mul ys -> List.equal equal xs ys
  | Pow (x, k), Pow (y, l) -> Int.equal k l && equal x y
  | Coth x, Coth y -> equal x y
  | (Num _ | Sym _ | Add _ | Mul _ | Pow _ | Coth _), _ -> false

(* precedence: Add 1, Mul 2, Pow 3, atoms 4 *)
let rec print ~prec buf e =
  let open Buffer in
  let paren p body =
    if p < prec then begin
      add_char buf '(';
      body ();
      add_char buf ')'
    end
    else body ()
  in
  match e with
  | Num x ->
      if x < 0.0 then paren 1 (fun () -> add_string buf (Printf.sprintf "%g" x))
      else add_string buf (Printf.sprintf "%g" x)
  | Sym s -> add_string buf s
  | Add ts ->
      paren 1 (fun () ->
          List.iteri
            (fun i t ->
              if i > 0 then add_string buf " + ";
              print ~prec:1 buf t)
            ts)
  | Mul fs ->
      paren 2 (fun () ->
          List.iteri
            (fun i f ->
              if i > 0 then add_char buf '*';
              print ~prec:3 buf f)
            fs)
  | Pow (b, n) ->
      paren 3 (fun () ->
          print ~prec:4 buf b;
          add_string buf (Printf.sprintf "^%d" n))
  | Coth x ->
      add_string buf "coth(";
      print ~prec:0 buf x;
      add_char buf ')'

let to_string e =
  let buf = Buffer.create 64 in
  print ~prec:0 buf e;
  Buffer.contents buf

let pool_of = function Some p -> p | None -> Pool.default ()

let grid ?pool ?chunk f a = Pool.map ?chunk (pool_of pool) f a

(* Lane-local state without Domain.DLS: a mutex-guarded free list of
   [local ()] instances. A chunk pops an instance (creating one when the
   list is empty), runs every point of the chunk on it, and pushes it
   back — so at most [lanes] instances ever exist, an instance is owned
   by exactly one chunk at a time, and the lock is taken twice per
   chunk, not per point. [Domain.DLS] would also work, but its slots
   are never reclaimed: a fresh key per sweep would grow every domain's
   local table for the life of the process. *)
type 'l lane_cache = { lock : Mutex.t; mutable free : 'l list }

let cache_acquire c local =
  Mutex.lock c.lock;
  let hit = match c.free with [] -> None | x :: rest -> c.free <- rest; Some x in
  Mutex.unlock c.lock;
  match hit with Some x -> x | None -> local ()

let cache_release c l =
  Mutex.lock c.lock;
  c.free <- l :: c.free;
  Mutex.unlock c.lock

let grid_local ?pool ?chunk ~local f a =
  let cache = { lock = Mutex.create (); free = [] } in
  Pool.map_chunked ?chunk (pool_of pool)
    ~enter:(fun () -> cache_acquire cache local)
    ~leave:(cache_release cache) f a

let map_list ?pool ?chunk f l =
  Array.to_list (Pool.map ?chunk (pool_of pool) f (Array.of_list l))

type 'a partial = {
  values : 'a option array;
  failures : (int * Robust.Pllscope_error.t) list;
  total : int;
}

let ok_count p = p.total - List.length p.failures

let grid_checked ?pool ?chunk ?retries ?cancel ?task_timeout f a =
  let results =
    Pool.map_checked ?chunk ?retries ?cancel ?task_timeout (pool_of pool) f a
  in
  let values =
    Array.map (function Ok v -> Some v | Error _ -> None) results
  in
  let failures = ref [] in
  for i = Array.length results - 1 downto 0 do
    match results.(i) with
    | Error e -> failures := (i, e) :: !failures
    | Ok _ -> ()
  done;
  { values; failures = !failures; total = Array.length a }

let pp_partial ppf p =
  match p.failures with
  | [] -> Format.fprintf ppf "sweep: %d/%d points ok" p.total p.total
  | fs ->
      Format.fprintf ppf "sweep: %d/%d points ok; failed:" (ok_count p) p.total;
      List.iter
        (fun (i, e) ->
          Format.fprintf ppf "@\n  point %d: %s" i (Robust.Pllscope_error.to_string e))
        fs

let sum ?pool ?chunk n term =
  if n <= 0 then 0.0
  else begin
    let terms = Pool.init ?chunk (pool_of pool) n term in
    let acc = ref terms.(0) in
    for i = 1 to n - 1 do
      acc := !acc +. terms.(i)
    done;
    !acc
  end

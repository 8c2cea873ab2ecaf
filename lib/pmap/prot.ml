type t = { r : bool; w : bool; x : bool }

(* The eight protections, indexed by r*4 + w*2 + x.  Every protection this
   module computes is one of them, so the hot paths (fault-ahead's
   [remove_write], COW's [intersect]) never allocate. *)
let table =
  Array.init 8 (fun i -> { r = i land 4 <> 0; w = i land 2 <> 0; x = i land 1 <> 0 })

let make r w x =
  table.((if r then 4 else 0) lor (if w then 2 else 0) lor if x then 1 else 0)

let none = make false false false
let read = make true false false
let rw = make true true false
let rx = make true false true
let rwx = make true true true
let all = rwx

let subsumes granted wanted =
  (granted.r || not wanted.r)
  && (granted.w || not wanted.w)
  && (granted.x || not wanted.x)

let intersect a b = make (a.r && b.r) (a.w && b.w) (a.x && b.x)
let remove_write t = make t.r false t.x
let equal a b = a.r = b.r && a.w = b.w && a.x = b.x

let to_string t =
  Printf.sprintf "%c%c%c"
    (if t.r then 'r' else '-')
    (if t.w then 'w' else '-')
    (if t.x then 'x' else '-')

let pp ppf t = Format.pp_print_string ppf (to_string t)

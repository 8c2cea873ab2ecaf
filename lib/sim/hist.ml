type subsystem = Fault | Map | Pdaemon | Pager | Swap | Ipc

let all_subsystems = [ Fault; Map; Pdaemon; Pager; Swap; Ipc ]

let subsystem_name = function
  | Fault -> "fault"
  | Map -> "map"
  | Pdaemon -> "pdaemon"
  | Pager -> "pager"
  | Swap -> "swap"
  | Ipc -> "ipc"

type event = {
  seq : int;
  ts : float;
  dur : float;
  subsys : subsystem;
  name : string;
  detail : (string * string) list;
}

(* One fixed-capacity ring per subsystem, as in UVMHIST where each
   subsystem declares its own history of a compile-time size. *)
type ring = {
  buf : event array;
  mutable next : int;  (* slot the next event lands in *)
  mutable count : int;  (* live events, <= capacity *)
  mutable total : int;  (* events ever written to this ring *)
}

type t = {
  mutable on : bool;
  mutable seq : int;
  rings : ring array;  (* indexed by subsystem *)
}

let subsystem_index = function
  | Fault -> 0
  | Map -> 1
  | Pdaemon -> 2
  | Pager -> 3
  | Swap -> 4
  | Ipc -> 5

let dummy_event =
  { seq = -1; ts = 0.0; dur = 0.0; subsys = Fault; name = ""; detail = [] }

let create ?(capacity = 4096) ?(enabled = false) () =
  if capacity < 1 then invalid_arg "Hist.create: capacity must be >= 1";
  {
    on = enabled;
    seq = 0;
    rings =
      Array.init (List.length all_subsystems) (fun _ ->
          { buf = Array.make capacity dummy_event; next = 0; count = 0; total = 0 });
  }

let enabled t = t.on
let set_enabled t b = t.on <- b

let record t ~subsys ~ts ?(dur = 0.0) ?(detail = []) name =
  if t.on then begin
    let r = t.rings.(subsystem_index subsys) in
    let seq = t.seq in
    t.seq <- seq + 1;
    let cap = Array.length r.buf in
    r.buf.(r.next) <- { seq; ts; dur; subsys; name; detail };
    r.next <- (r.next + 1) mod cap;
    if r.count < cap then r.count <- r.count + 1;
    r.total <- r.total + 1
  end

(* The [i]th oldest event of one ring. *)
let ring_get r i =
  let cap = Array.length r.buf in
  r.buf.((r.next - r.count + cap + i) mod cap)

let events_of t subsys =
  let r = t.rings.(subsystem_index subsys) in
  List.init r.count (ring_get r)

let recorded t = Array.fold_left (fun acc r -> acc + r.total) 0 t.rings
let retained t = Array.fold_left (fun acc r -> acc + r.count) 0 t.rings

(* (ts, seq) is a total order, so one sort of all rings' events gives the
   same stream whatever the algorithm. *)
let events t =
  let out = Array.make (retained t) dummy_event in
  let k = ref 0 in
  Array.iter
    (fun r ->
      for i = 0 to r.count - 1 do
        out.(!k + i) <- ring_get r i
      done;
      k := !k + r.count)
    t.rings;
  Array.stable_sort
    (fun a b ->
      match Float.compare a.ts b.ts with 0 -> Int.compare a.seq b.seq | c -> c)
    out;
  Array.to_list out

let dropped t = recorded t - retained t

let clear t =
  t.seq <- 0;
  Array.iter
    (fun r ->
      r.next <- 0;
      r.count <- 0;
      r.total <- 0)
    t.rings

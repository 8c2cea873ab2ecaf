module Prot = Prot

type pte = {
  mutable page : Physmem.Page.t;
  mutable prot : Prot.t;
  mutable wired : bool;
}

(* Translations live in a two-level table indexed by vpn: a directory of
   fixed 512-slot leaves, each allocated on the first [enter] into it, so
   an operation over [lo, hi) visits only the leaves overlapping it. *)
let leaf_bits = 9
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1

(* Shared by every directory slot no [enter] has reached; never written. *)
let empty_leaf : pte option array = Array.make leaf_size None

type ctx = {
  clock : Sim.Simclock.t;
  costs : Sim.Cost_model.t;
  stats : Sim.Stats.t;
  lifecycle : Sim.Lifecycle.t;
  mutable pv : (t * int) list array;
      (* pv lists by frame id, newest mapping first; grown on demand *)
}

and t = {
  ctx : ctx;
  mutable dir : pte option array array;  (* up to the highest leaf entered *)
  mutable resident : int;
}

let create_ctx ?lifecycle ~clock ~costs ~stats () =
  let lifecycle =
    match lifecycle with Some l -> l | None -> Sim.Lifecycle.create ()
  in
  { clock; costs; stats; lifecycle; pv = Array.make 1024 [] }

let create ctx = { ctx; dir = [||]; resident = 0 }

let charge t cost =
  Sim.Simclock.advance t.ctx.clock cost

let pv_add ctx (page : Physmem.Page.t) pmap vpn =
  let id = page.id in
  let n = Array.length ctx.pv in
  if id >= n then begin
    let pv = Array.make (max (id + 1) (2 * n)) [] in
    Array.blit ctx.pv 0 pv 0 n;
    ctx.pv <- pv
  end;
  ctx.pv.(id) <- (pmap, vpn) :: ctx.pv.(id)

(* A (pmap, vpn) pair is on a frame's list at most once: drop it and keep
   the rest in order. *)
let pv_remove ctx (page : Physmem.Page.t) pmap vpn =
  let rec drop = function
    | [] -> []
    | ((m, v) as mapping) :: rest ->
        if m == pmap && v = vpn then rest else mapping :: drop rest
  in
  ctx.pv.(page.id) <- drop ctx.pv.(page.id)

(* A negative vpn shifts to a huge directory index, so it is never found. *)
let lookup t ~vpn =
  let d = vpn lsr leaf_bits in
  if d < Array.length t.dir then t.dir.(d).(vpn land leaf_mask) else None

(* Drop the translation held in slot [i] of [leaf]. *)
let unmap t leaf i ~vpn pte =
  (* Dropping a translation to a frame whose fault-ahead premap was never
     touched resolves the premap as wasted. *)
  Physmem.note_unmapped ~stats:t.ctx.stats ~lifecycle:t.ctx.lifecycle pte.page;
  pv_remove t.ctx pte.page t vpn;
  leaf.(i) <- None;
  t.resident <- t.resident - 1;
  charge t t.ctx.costs.Sim.Cost_model.pmap_remove;
  Sim.Stats.(incr t.ctx.stats pmap_removes)

let remove_one t ~vpn =
  match lookup t ~vpn with
  | None -> ()
  | Some pte -> unmap t t.dir.(vpn lsr leaf_bits) (vpn land leaf_mask) ~vpn pte

(* The leaf holding [vpn], growing the directory and allocating the leaf
   as needed. *)
let leaf_for t vpn =
  if vpn < 0 then invalid_arg "Pmap.enter: negative vpn";
  let d = vpn lsr leaf_bits in
  let n = Array.length t.dir in
  if d >= n then begin
    let dir = Array.make (d + 1) empty_leaf in
    Array.blit t.dir 0 dir 0 n;
    t.dir <- dir
  end;
  let leaf = t.dir.(d) in
  if leaf != empty_leaf then leaf
  else begin
    let leaf = Array.make leaf_size None in
    t.dir.(d) <- leaf;
    leaf
  end

let enter t ~vpn ~page ~prot ~wired =
  let leaf = leaf_for t vpn in
  let i = vpn land leaf_mask in
  (match leaf.(i) with
  | Some pte when pte.page == page ->
      pte.prot <- prot;
      pte.wired <- wired
  | old ->
      (match old with Some pte -> unmap t leaf i ~vpn pte | None -> ());
      leaf.(i) <- Some { page; prot; wired };
      t.resident <- t.resident + 1;
      pv_add t.ctx page t vpn);
  charge t t.ctx.costs.Sim.Cost_model.pmap_enter;
  Sim.Stats.(incr t.ctx.stats pmap_enters)

(* [f leaf i ~vpn pte] for every translation with [lo <= vpn < hi], in vpn
   order.  [f] may clear the slot it is given. *)
let iter_range t ~lo ~hi f =
  let lo = max lo 0 and hi = min hi (Array.length t.dir lsl leaf_bits) in
  if lo < hi then
    for d = lo lsr leaf_bits to (hi - 1) lsr leaf_bits do
      let leaf = t.dir.(d) in
      if leaf != empty_leaf then begin
        let base = d lsl leaf_bits in
        for i = max lo base - base to min hi (base + leaf_size) - 1 - base do
          match leaf.(i) with
          | None -> ()
          | Some pte -> f leaf i ~vpn:(base + i) pte
        done
      end
    done

let remove_range t ~lo ~hi = iter_range t ~lo ~hi (unmap t)

let protect t pte prot =
  pte.prot <- prot;
  charge t t.ctx.costs.Sim.Cost_model.pmap_protect;
  Sim.Stats.(incr t.ctx.stats pmap_protects)

let protect_range t ~lo ~hi ~prot =
  if Prot.equal prot Prot.none then remove_range t ~lo ~hi
  else iter_range t ~lo ~hi (fun _ _ ~vpn:_ pte -> protect t pte prot)

let restrict_range t ~lo ~hi ~prot =
  iter_range t ~lo ~hi (fun _ _ ~vpn:_ pte ->
      protect t pte (Prot.intersect pte.prot prot))

let resident_count t = t.resident

let translations t =
  let acc = ref [] in
  iter_range t ~lo:0 ~hi:max_int (fun _ _ ~vpn pte -> acc := (vpn, pte) :: !acc);
  List.rev !acc

let destroy t = remove_range t ~lo:0 ~hi:max_int

let mappings_of_page ctx (page : Physmem.Page.t) =
  if page.id < Array.length ctx.pv then ctx.pv.(page.id) else []

let page_remove_all ctx page =
  List.iter (fun (pmap, vpn) -> remove_one pmap ~vpn) (mappings_of_page ctx page)

let page_remove_unwired ctx page =
  List.iter
    (fun (pmap, vpn) ->
      match lookup pmap ~vpn with
      | Some pte when not pte.wired -> remove_one pmap ~vpn
      | Some _ | None -> ())
    (mappings_of_page ctx page)

let page_protect_all ctx page ~prot =
  List.iter
    (fun (pmap, vpn) ->
      match lookup pmap ~vpn with
      | None -> ()
      | Some pte -> protect pmap pte (Prot.intersect pte.prot prot))
    (mappings_of_page ctx page)

let is_referenced (page : Physmem.Page.t) = page.referenced
let clear_reference _ctx (page : Physmem.Page.t) = page.referenced <- false

let mark_access t ~vpn ~write =
  match lookup t ~vpn with
  | None -> ()
  | Some pte ->
      (* A touch through an existing translation: if the frame was
         premapped by fault-ahead this is precisely a fault avoided. *)
      Physmem.note_soft_use ~stats:t.ctx.stats ~lifecycle:t.ctx.lifecycle
        pte.page;
      pte.page.Physmem.Page.referenced <- true;
      if write then pte.page.Physmem.Page.dirty <- true

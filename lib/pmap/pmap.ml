module Prot = Prot

type pte = {
  mutable page : Physmem.Page.t;
  mutable prot : Prot.t;
  mutable wired : bool;
}

type ctx = {
  clock : Sim.Simclock.t;
  costs : Sim.Cost_model.t;
  stats : Sim.Stats.t;
  lifecycle : Sim.Lifecycle.t;
  pv : (int, (t * int) list ref) Hashtbl.t;
  mutable next_id : int;
}

and t = { ctx : ctx; id : int; ptes : (int, pte) Hashtbl.t }

let create_ctx ?lifecycle ~clock ~costs ~stats () =
  let lifecycle =
    match lifecycle with Some l -> l | None -> Sim.Lifecycle.create ()
  in
  { clock; costs; stats; lifecycle; pv = Hashtbl.create 1024; next_id = 0 }

let create ctx =
  let id = ctx.next_id in
  ctx.next_id <- id + 1;
  { ctx; id; ptes = Hashtbl.create 64 }

let charge t cost =
  Sim.Simclock.advance t.ctx.clock cost

let pv_list ctx (page : Physmem.Page.t) =
  match Hashtbl.find_opt ctx.pv page.id with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace ctx.pv page.id l;
      l

let pv_add ctx page pmap vpn =
  let l = pv_list ctx page in
  l := (pmap, vpn) :: !l

let pv_remove ctx (page : Physmem.Page.t) pmap vpn =
  match Hashtbl.find_opt ctx.pv page.id with
  | None -> ()
  | Some l ->
      l := List.filter (fun (m, v) -> not (m == pmap && v = vpn)) !l;
      if !l = [] then Hashtbl.remove ctx.pv page.id

let remove_one t ~vpn =
  match Hashtbl.find_opt t.ptes vpn with
  | None -> ()
  | Some pte ->
      (* Dropping a translation to a frame whose fault-ahead premap was
         never touched resolves the premap as wasted. *)
      Physmem.note_unmapped ~stats:t.ctx.stats ~lifecycle:t.ctx.lifecycle
        pte.page;
      pv_remove t.ctx pte.page t vpn;
      Hashtbl.remove t.ptes vpn;
      charge t t.ctx.costs.Sim.Cost_model.pmap_remove;
      Sim.Stats.(incr t.ctx.stats pmap_removes)

let enter t ~vpn ~page ~prot ~wired =
  (match Hashtbl.find_opt t.ptes vpn with
  | Some old when not (old.page == page) -> remove_one t ~vpn
  | Some _ | None -> ());
  (match Hashtbl.find_opt t.ptes vpn with
  | Some pte ->
      pte.prot <- prot;
      pte.wired <- wired
  | None ->
      Hashtbl.replace t.ptes vpn { page; prot; wired };
      pv_add t.ctx page t vpn);
  charge t t.ctx.costs.Sim.Cost_model.pmap_enter;
  Sim.Stats.(incr t.ctx.stats pmap_enters)

let remove_range t ~lo ~hi =
  (* Collect first: removing mutates the table we would be iterating. *)
  let doomed =
    Hashtbl.fold (fun vpn _ acc -> if vpn >= lo && vpn < hi then vpn :: acc else acc)
      t.ptes []
  in
  List.iter (fun vpn -> remove_one t ~vpn) doomed

let protect_range t ~lo ~hi ~prot =
  if Prot.equal prot Prot.none then remove_range t ~lo ~hi
  else
    Hashtbl.iter
      (fun vpn pte ->
        if vpn >= lo && vpn < hi then begin
          pte.prot <- prot;
          charge t t.ctx.costs.Sim.Cost_model.pmap_protect;
          Sim.Stats.(incr t.ctx.stats pmap_protects)
        end)
      t.ptes

let restrict_range t ~lo ~hi ~prot =
  Hashtbl.iter
    (fun vpn pte ->
      if vpn >= lo && vpn < hi then begin
        pte.prot <- Prot.intersect pte.prot prot;
        charge t t.ctx.costs.Sim.Cost_model.pmap_protect;
        Sim.Stats.(incr t.ctx.stats pmap_protects)
      end)
    t.ptes

let lookup t ~vpn = Hashtbl.find_opt t.ptes vpn
let resident_count t = Hashtbl.length t.ptes

let translations t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun vpn pte acc -> (vpn, pte) :: acc) t.ptes [])

let destroy t =
  let all = Hashtbl.fold (fun vpn _ acc -> vpn :: acc) t.ptes [] in
  List.iter (fun vpn -> remove_one t ~vpn) all

let mappings_of_page ctx (page : Physmem.Page.t) =
  match Hashtbl.find_opt ctx.pv page.id with Some l -> !l | None -> []

let page_remove_all ctx page =
  List.iter (fun (pmap, vpn) -> remove_one pmap ~vpn) (mappings_of_page ctx page)

let page_remove_unwired ctx page =
  List.iter
    (fun (pmap, vpn) ->
      match Hashtbl.find_opt pmap.ptes vpn with
      | Some pte when not pte.wired -> remove_one pmap ~vpn
      | Some _ | None -> ())
    (mappings_of_page ctx page)

let page_protect_all ctx page ~prot =
  List.iter
    (fun (pmap, vpn) ->
      match Hashtbl.find_opt pmap.ptes vpn with
      | None -> ()
      | Some pte ->
          pte.prot <- Prot.intersect pte.prot prot;
          Sim.Simclock.advance ctx.clock ctx.costs.Sim.Cost_model.pmap_protect;
          Sim.Stats.(incr ctx.stats pmap_protects))
    (mappings_of_page ctx page)

let is_referenced (page : Physmem.Page.t) = page.referenced
let clear_reference _ctx (page : Physmem.Page.t) = page.referenced <- false

let mark_access t ~vpn ~write =
  match Hashtbl.find_opt t.ptes vpn with
  | None -> ()
  | Some pte ->
      (* A touch through an existing translation: if the frame was
         premapped by fault-ahead this is precisely a fault avoided. *)
      Physmem.note_soft_use ~stats:t.ctx.stats ~lifecycle:t.ctx.lifecycle
        pte.page;
      pte.page.Physmem.Page.referenced <- true;
      if write then pte.page.Physmem.Page.dirty <- true

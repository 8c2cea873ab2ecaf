module Vmtypes = Vmiface.Vmtypes

type t = { token : int; loaned : Physmem.Page.t list }

(* Fault the page at [vpn] in for read and return the backing frame. *)
let resolve_page map ~vpn =
  (match Pmap.lookup map.Uvm_map.pmap ~vpn with
  | Some _ -> ()
  | None -> (
      match Uvm_fault.fault map ~vpn ~access:Vmtypes.Read ~wire:false with
      | Ok () -> ()
      | Error error -> raise (Vmtypes.Segv { vpn; error })));
  match Pmap.lookup map.Uvm_map.pmap ~vpn with
  | Some pte -> pte.Pmap.page
  | None -> assert false

(* Is this frame owned by an anon (as opposed to a memory object)? *)
let anon_owner (page : Physmem.Page.t) =
  match page.owner with Uvm_anon.Anon_page anon -> Some anon | _ -> None

let loan_one map ~vpn ~wire =
  let sys = map.Uvm_map.sys in
  let page = resolve_page map ~vpn in
  Uvm_sys.charge sys (Uvm_sys.costs sys).Sim.Cost_model.loan_page;
  page.Physmem.Page.loan_count <- page.Physmem.Page.loan_count + 1;
  (* Preserve COW: the owner's next write must fault and copy, not write
     through to the borrowed frame. *)
  if anon_owner page <> None then
    Pmap.page_protect_all (Uvm_sys.pmap_ctx sys) page
      ~prot:(Pmap.Prot.remove_write Pmap.Prot.rwx);
  if wire then Physmem.wire (Uvm_sys.physmem sys) page;
  let stats = Uvm_sys.stats sys in
  Sim.Stats.(incr stats pages_loaned);
  page

let to_kernel map ~vpn ~npages =
  let sys = map.Uvm_map.sys in
  let stats = Uvm_sys.stats sys in
  Sim.Stats.(incr stats loanouts);
  (* Loan setup: syscall entry plus anon/object layer preparation. *)
  Uvm_sys.charge sys
    ((Uvm_sys.costs sys).Sim.Cost_model.syscall_overhead
    +. (1.5 *. (Uvm_sys.costs sys).Sim.Cost_model.loan_page));
  let loaned =
    List.init npages (fun i -> loan_one map ~vpn:(vpn + i) ~wire:true)
  in
  (* Register with the auditor's loan census: each outstanding kernel
     loan must account for exactly one loan_count on each of its pages. *)
  { token = Uvm_sys.register_kernel_loan sys loaned; loaned }

let pages t = t.loaned

let finish sys t =
  Uvm_sys.unregister_kernel_loan sys t.token;
  let physmem = Uvm_sys.physmem sys in
  List.iter
    (fun (page : Physmem.Page.t) ->
      Physmem.unwire physmem page;
      Physmem.release_loan physmem page)
    t.loaned

let to_anons map ~vpn ~npages =
  let sys = map.Uvm_map.sys in
  let stats = Uvm_sys.stats sys in
  Sim.Stats.(incr stats loanouts);
  List.init npages (fun i ->
      let vpn = vpn + i in
      let page = resolve_page map ~vpn in
      match anon_owner page with
      | Some anon ->
          (* A->A: share the anon itself; anon-level COW does the rest. *)
          Uvm_anon.ref_ anon;
          (* Both sides must now fault before writing in place. *)
          Pmap.page_protect_all (Uvm_sys.pmap_ctx sys) page
            ~prot:(Pmap.Prot.remove_write Pmap.Prot.rwx);
          anon
      | None ->
          (* O->A: wrap the object's page in a borrowing anon. *)
          let anon = Uvm_anon.alloc_empty sys in
          page.Physmem.Page.loan_count <- page.Physmem.Page.loan_count + 1;
          Sim.Stats.(incr stats pages_loaned);
          anon.Uvm_anon.page <- Some page;
          anon)

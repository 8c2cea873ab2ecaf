(** The simulated disk: a cost model (per-operation latency plus per-page
    transfer time) and an optional {!Fault_plan} making transfers fallible.

    Every transfer returns [(unit, Fault_plan.error) result].  A failed
    operation still charges the clock — the bus time and the seek were
    spent before the device reported the error — and still counts as an
    issued operation, but transfers no pages.  Callers that know which
    device slots an operation touches pass them via [~slots] so scripted
    per-slot faults (bad media) can target them. *)

type t = {
  clock : Simclock.t;
  costs : Cost_model.t;
  stats : Stats.t;
  mutable plan : Fault_plan.t option;
  mutable read_ops : int;
  mutable write_ops : int;
  mutable pages_read : int;
  mutable pages_written : int;
}

let create ~clock ~costs ~stats =
  {
    clock;
    costs;
    stats;
    plan = None;
    read_ops = 0;
    write_ops = 0;
    pages_read = 0;
    pages_written = 0;
  }

let set_fault_plan t plan = t.plan <- plan
let fault_plan t = t.plan

let transfer_cost ?(sequential = false) t npages =
  (if sequential then 0.0 else t.costs.Cost_model.disk_op_latency)
  +. (float_of_int npages *. t.costs.Cost_model.disk_page_transfer)

let inject t ~op ~slots =
  match t.plan with
  | None -> None
  | Some plan -> (
      match Fault_plan.check plan ~op ~slots with
      | Some _ as e ->
          Stats.(incr t.stats io_errors_injected);
          e
      | None -> None)

let read ?sequential ?(slots = []) t ~npages =
  if npages < 1 then invalid_arg "Disk.read: npages must be >= 1";
  Simclock.advance t.clock (transfer_cost ?sequential t npages);
  t.read_ops <- t.read_ops + 1;
  Stats.(incr t.stats disk_read_ops);
  match inject t ~op:Fault_plan.Read ~slots with
  | Some e -> Error e
  | None ->
      t.pages_read <- t.pages_read + npages;
      Stats.(bump t.stats disk_pages_read npages);
      Ok ()

let write ?(slots = []) t ~npages =
  if npages < 1 then invalid_arg "Disk.write: npages must be >= 1";
  Simclock.advance t.clock (transfer_cost t npages);
  t.write_ops <- t.write_ops + 1;
  Stats.(incr t.stats disk_write_ops);
  match inject t ~op:Fault_plan.Write ~slots with
  | Some e -> Error e
  | None ->
      t.pages_written <- t.pages_written + npages;
      Stats.(bump t.stats disk_pages_written npages);
      Ok ()

let read_ops t = t.read_ops
let write_ops t = t.write_ops
let pages_read t = t.pages_read
let pages_written t = t.pages_written

(* Simulated SMP (DESIGN.md §16).

   N virtual CPUs over one sequential simulation: each CPU owns a
   virtual clock, the scheduler interleaves runnable tasks (Procsim
   processes, storm workers) deterministically at step boundaries, and a
   contention model charges lock waits and cache-line bounces into the
   machine clock while the quantum runs — so the costs land inside the
   hold/fault being simulated, not as an afterthought.

   Scheduling rule (the determinism contract): among CPUs with runnable
   tasks, run the one with the smallest virtual clock (ties: lowest CPU
   index); within a CPU, tasks round-robin.  One quantum is one task
   step.  Machine-clock time consumed by the step advances that CPU's
   virtual clock, so CPUs progress in lockstep with their own work, and
   a run is a pure function of (tasks, seed). *)

type task = { t_name : string; t_step : int -> bool; mutable t_steps : int }

type cpu = {
  c_idx : int;
  mutable c_now : float;  (* virtual clock, µs *)
  mutable c_quanta : int;
  c_stats : Stats.t;  (* per-CPU shard: quantum deltas accumulated *)
  mutable c_wait_us : float;
  mutable c_bounces : int;
  c_wait_by : (string, float ref) Hashtbl.t;  (* lock class -> wait µs *)
  c_bounce_by : (string, int ref) Hashtbl.t;
  c_tasks : task Queue.t;
}

(* Per lock instance: which CPU touched it last (bounce detection) and,
   for its last read/write holds, when they end in virtual time and how
   long they were (wait model: readers admit concurrently, writers
   exclude everyone; a waiter never waits longer than the blocking hold
   itself lasted). *)
type inst_state = {
  mutable i_last_cpu : int;
  mutable i_w_end : float;
  mutable i_r_end : float;
  mutable i_w_dur : float;
  mutable i_r_dur : float;
  mutable i_acq_v : float;  (* virtual time of the in-flight acquire *)
}

type t = {
  clock : Simclock.t;
  costs : Cost_model.t;
  stats : Stats.t;  (* the machine's global counters *)
  before : Stats.t;  (* [stats] at the start of the quantum in flight *)
  locks : Lockstat.t option;
  rng : Rng.t;
  cpus : cpu array;
  insts : (string * int, inst_state) Hashtbl.t;
  mutable running : int;  (* CPU of the quantum in flight, -1 between *)
  mutable q_m0 : float;  (* machine clock at quantum start *)
  mutable q_v0 : float;  (* running CPU's virtual clock at quantum start *)
  mutable quanta : int;
  mutable on_dispatch : (int -> unit) option;
}

let create ?(seed = 1) ~cpus ~clock ~costs ~stats ?locks () =
  if cpus < 1 then invalid_arg "Smp.create: need at least one CPU";
  {
    clock;
    costs;
    stats;
    before = Stats.create ();
    locks;
    rng = Rng.create ~seed;
    cpus =
      Array.init cpus (fun i ->
          {
            c_idx = i;
            c_now = 0.0;
            c_quanta = 0;
            c_stats = Stats.create ();
            c_wait_us = 0.0;
            c_bounces = 0;
            c_wait_by = Hashtbl.create 8;
            c_bounce_by = Hashtbl.create 8;
            c_tasks = Queue.create ();
          });
    insts = Hashtbl.create 64;
    running = -1;
    q_m0 = 0.0;
    q_v0 = 0.0;
    quanta = 0;
    on_dispatch = None;
  }

let ncpus t = Array.length t.cpus
let set_on_dispatch t f = t.on_dispatch <- Some f
let current_cpu t = t.running
let runnable t ~cpu = Queue.length t.cpus.(cpu).c_tasks

let add_task t ?cpu ~name step =
  let c =
    match cpu with
    | Some i ->
        if i < 0 || i >= ncpus t then invalid_arg "Smp.add_task: no such CPU";
        i
    | None -> Rng.int t.rng (ncpus t)
  in
  Queue.add { t_name = name; t_step = step; t_steps = 0 } t.cpus.(c).c_tasks

(* ---- The contention model (Lockstat observer) ----------------------- *)

let inst_state t ~cls ~inst =
  match Hashtbl.find_opt t.insts (cls, inst) with
  | Some s -> s
  | None ->
      let s =
        {
          i_last_cpu = -1;
          i_w_end = 0.0;
          i_r_end = 0.0;
          i_w_dur = 0.0;
          i_r_dur = 0.0;
          i_acq_v = 0.0;
        }
      in
      Hashtbl.replace t.insts (cls, inst) s;
      s

let bump_f tbl key v =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace tbl key (ref v)

let bump_i tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

(* Virtual time on the running CPU right now: its clock at quantum start
   plus the machine time the quantum has consumed so far. *)
let vnow t = t.q_v0 +. (Simclock.now t.clock -. t.q_m0)

let observe t (ev : Lockstat.contention_event) =
  if t.running >= 0 then
    match ev with
    (* Root acquires are thread-context markers (pagedaemon, OOM reaper):
       no fault path blocks on them in a real kernel, so the contention
       model is blind to them. *)
    | Lockstat.Acquired { root = true; _ } | Lockstat.Released { root = true; _ }
      ->
        ()
    | Lockstat.Acquired { cls; inst; mode; root = _ } ->
        let cpu = t.cpus.(t.running) in
        let st = inst_state t ~cls ~inst in
        (* Cross-CPU handoff: the lock word's cache line migrates. *)
        if st.i_last_cpu >= 0 && st.i_last_cpu <> t.running then begin
          Simclock.advance t.clock t.costs.Cost_model.line_bounce;
          cpu.c_bounces <- cpu.c_bounces + 1;
          bump_i cpu.c_bounce_by cls;
          Stats.(incr t.stats line_bounces)
        end;
        let v = vnow t in
        (* Raw overlap is end-of-blocking-hold minus now; but the CPUs'
           clocks only meet at quantum boundaries, so raw overlap also
           contains up to a quantum of clock skew.  A waiter physically
           cannot wait longer than the holder held, so the charge is
           capped by the blocking hold's own duration — which is what
           lets micro-held locks (queue surgery) stay cheap while holds
           spanning pagein I/O contend for real. *)
        let wait =
          match mode with
          | Lockstat.Read -> Float.min (st.i_w_end -. v) st.i_w_dur
          | Lockstat.Write ->
              if st.i_w_end >= st.i_r_end then
                Float.min (st.i_w_end -. v) st.i_w_dur
              else Float.min (st.i_r_end -. v) st.i_r_dur
        in
        if wait > 0.0 then begin
          (* Charged before Lockstat stamps the hold start, so the wait
             extends the fault being simulated but not the hold. *)
          Simclock.advance t.clock wait;
          cpu.c_wait_us <- cpu.c_wait_us +. wait;
          bump_f cpu.c_wait_by cls wait;
          Stats.(add_us t.stats lock_wait_us wait)
        end;
        st.i_acq_v <- vnow t
    | Lockstat.Released { cls; inst; mode; root = _ } ->
        let st = inst_state t ~cls ~inst in
        let v_end = vnow t in
        let dur = Float.max 0.0 (v_end -. st.i_acq_v) in
        (match mode with
        | Lockstat.Read ->
            st.i_r_end <- Float.max st.i_r_end v_end;
            st.i_r_dur <- dur
        | Lockstat.Write ->
            st.i_w_end <- Float.max st.i_w_end v_end;
            st.i_w_dur <- dur);
        st.i_last_cpu <- t.running

(* ---- The scheduler -------------------------------------------------- *)

let pick_cpu t =
  let best = ref (-1) in
  Array.iter
    (fun c ->
      if not (Queue.is_empty c.c_tasks) then
        match !best with
        | -1 -> best := c.c_idx
        | b when t.cpus.(b).c_now > c.c_now -> best := c.c_idx
        | _ -> ())
    t.cpus;
  !best

let run_quantum t cpu_idx =
  let cpu = t.cpus.(cpu_idx) in
  let task = Queue.pop cpu.c_tasks in
  (match t.on_dispatch with Some f -> f cpu_idx | None -> ());
  t.running <- cpu_idx;
  t.q_m0 <- Simclock.now t.clock;
  t.q_v0 <- cpu.c_now;
  Stats.blit ~src:t.stats ~dst:t.before;
  let alive =
    Fun.protect
      ~finally:(fun () ->
        t.running <- -1;
        cpu.c_now <- cpu.c_now +. (Simclock.now t.clock -. t.q_m0);
        cpu.c_quanta <- cpu.c_quanta + 1;
        t.quanta <- t.quanta + 1;
        Stats.add_delta ~into:cpu.c_stats ~after:t.stats ~before:t.before)
      (fun () -> task.t_step task.t_steps)
  in
  task.t_steps <- task.t_steps + 1;
  if alive then Queue.add task cpu.c_tasks

let run ?(every = 0) ?hook t =
  (match t.locks with
  | Some ls -> Lockstat.set_observer ls (Some (observe t))
  | None -> ());
  Fun.protect
    ~finally:(fun () ->
      match t.locks with
      | Some ls -> Lockstat.set_observer ls None
      | None -> ())
    (fun () ->
      let rec loop () =
        match pick_cpu t with
        | -1 -> ()
        | cpu ->
            run_quantum t cpu;
            (match hook with
            | Some f when every > 0 && t.quanta mod every = 0 -> f ()
            | _ -> ());
            loop ()
      in
      loop ())

(* ---- Results -------------------------------------------------------- *)

let wall_us t = Array.fold_left (fun w c -> Float.max w c.c_now) 0.0 t.cpus
let quanta t = t.quanta

type cpu_view = {
  cv_cpu : int;
  cv_now_us : float;
  cv_quanta : int;
  cv_stats : Stats.t;
  cv_wait_us : float;
  cv_bounces : int;
  cv_wait_by_class : (string * float) list;
  cv_bounce_by_class : (string * int) list;
}

let cpu_views t =
  Array.to_list
    (Array.map
       (fun c ->
         {
           cv_cpu = c.c_idx;
           cv_now_us = c.c_now;
           cv_quanta = c.c_quanta;
           cv_stats = c.c_stats;
           cv_wait_us = c.c_wait_us;
           cv_bounces = c.c_bounces;
           cv_wait_by_class =
             Hashtbl.fold (fun k v acc -> (k, !v) :: acc) c.c_wait_by []
             |> List.sort compare;
           cv_bounce_by_class =
             Hashtbl.fold (fun k v acc -> (k, !v) :: acc) c.c_bounce_by []
             |> List.sort compare;
         })
       t.cpus)

let total_wait_us t =
  Array.fold_left (fun acc c -> acc +. c.c_wait_us) 0.0 t.cpus

let total_bounces t =
  Array.fold_left (fun acc c -> acc + c.c_bounces) 0 t.cpus

let wait_by_class t =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun c -> Hashtbl.iter (fun k v -> bump_f tbl k !v) c.c_wait_by)
    t.cpus;
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

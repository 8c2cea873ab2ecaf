(* Seeded call streams.  A workload is generated once per (name, seed),
   before anything is timed, and replayed unchanged against each kernel:
   UVM and BSD VM see the identical sequence of VM_SYS calls.  Each [op]
   is exactly one VM_SYS call.

   The generator keeps a model of what every tagged page must hold, so
   read-back ops carry their expected bytes: a child's writes stay in the
   child, data written before a pageout is there after the pagein, and a
   file page reads as the file's contents. *)

module Machine = Vmiface.Machine
module Vt = Vmiface.Vmtypes

type src = Anon | File of { file : int; off : int }

type region = {
  npages : int;
  share : Vt.share;
  writable : bool;
  src : src;
}

type expect = Tag of int | File_data of { file : int; pg : int } | Zeros

type op =
  | Spawn of int  (** new_vmspace into a process slot *)
  | Mmap of { p : int; r : int }
  | Munmap of { p : int; r : int }
  | Fork of { parent : int; child : int }
  | Exit of int  (** destroy_vmspace *)
  | Touch of { p : int; r : int; pg : int; write : bool }
  | Write of { p : int; r : int; pg : int; tag : int }  (** write_bytes *)
  | Read of { p : int; r : int; pg : int; expect : expect }  (** read_bytes *)

type t = {
  name : string;
  config : Machine.config;
  files : (string * int) array;  (** name, pages *)
  regions : region array;
  slots : int;  (** process slots *)
  setup : op array;  (** builds the initial state, untimed *)
  stream : op array;  (** the timed calls *)
  smp : (int * op array array array) option;
      (** cpus and, per worker and per scheduler quantum, the timed calls:
          run as {!Sim.Smp} tasks instead of [stream] *)
  checks : op array;  (** read-backs after the timed phase, untimed *)
}

let names = [ "fork-cow"; "paging"; "smp-observed" ]
let check_bytes = 16
let tag_bytes tag = Bytes.of_string (Printf.sprintf "%016x" tag)

let expected_bytes ~page_size files = function
  | Tag t -> tag_bytes t
  | Zeros -> Bytes.make check_bytes '\000'
  | File_data { file; pg } ->
      let name = fst files.(file) in
      Bytes.init check_bytes (fun i ->
          Vfs.file_byte ~name ~off:((pg * page_size) + i))

let calls w =
  match w.smp with
  | None -> Array.length w.stream
  | Some (_, workers) ->
      Array.fold_left
        (Array.fold_left (fun n step -> n + Array.length step))
        0 workers

(* -- the generator ------------------------------------------------------- *)

type gen = {
  rng : Random.State.t;
  regions : region array;
  model : expect array option array array;  (** slot -> region -> page *)
  mutable ops : op list;
}

let gen ~seed ~workload ~regions ~slots =
  {
    rng = Random.State.make [| seed; Hashtbl.hash workload |];
    regions;
    model = Array.init slots (fun _ -> Array.make (Array.length regions) None);
    ops = [];
  }

let emit g op = g.ops <- op :: g.ops

let take g =
  let a = Array.of_list (List.rev g.ops) in
  g.ops <- [];
  a

let rand g n = Random.State.int g.rng n
let chance g p = Random.State.float g.rng 1.0 < p
let fresh_tag g = (Random.State.bits g.rng lsl 30) lor Random.State.bits g.rng

let page_model g p r =
  match g.model.(p).(r) with
  | Some m -> m
  | None -> invalid_arg "Workload: region not mapped in the model"

let spawn g p = emit g (Spawn p)

let mmap g p r =
  let reg = g.regions.(r) in
  g.model.(p).(r) <-
    Some
      (Array.init reg.npages (fun i ->
           match reg.src with
           | Anon -> Zeros
           | File { file; off } -> File_data { file; pg = off + i }));
  emit g (Mmap { p; r })

let munmap g p r =
  g.model.(p).(r) <- None;
  emit g (Munmap { p; r })

let fork g ~parent ~child =
  g.model.(child) <-
    Array.mapi
      (fun r m ->
        match (m, g.regions.(r).share) with
        | Some a, Vt.Private -> Some (Array.copy a)
        | m, _ -> m)
      g.model.(parent);
  emit g (Fork { parent; child })

let exit_ g p =
  Array.fill g.model.(p) 0 (Array.length g.model.(p)) None;
  emit g (Exit p)

let touch g p r pg ~write = emit g (Touch { p; r; pg; write })

let write g p r pg =
  let tag = fresh_tag g in
  (page_model g p r).(pg) <- Tag tag;
  emit g (Write { p; r; pg; tag })

let read g p r pg = emit g (Read { p; r; pg; expect = (page_model g p r).(pg) })

(* -- fork-cow ------------------------------------------------------------ *)

(* A handful of resident processes share one program file: its text is a
   shared read-only mapping, its data segment a private copy-on-write
   mapping, and each process has a zero-fill heap it has written in full.
   Each round forks one of them; the child mixes copy-on-write writes with
   shared reads, maps, writes and unmaps a small buffer region, and
   exits; the parent then writes its heap again. *)

let fork_cow ~seed =
  let parents = 4 and child = 4 in
  let text = 64 and data = 64 and heap = 512 and buffer = 8 in
  let forks = 600 and child_touches = 150 in
  let regions =
    [|
      { npages = text; share = Vt.Shared; writable = false;
        src = File { file = 0; off = 0 } };
      { npages = data; share = Vt.Private; writable = true;
        src = File { file = 0; off = text } };
      { npages = heap; share = Vt.Private; writable = true; src = Anon };
      { npages = buffer; share = Vt.Private; writable = true; src = Anon };
    |]
  in
  let g = gen ~seed ~workload:"fork-cow" ~regions ~slots:(parents + 1) in
  for p = 0 to parents - 1 do
    spawn g p;
    mmap g p 0;
    mmap g p 1;
    mmap g p 2;
    for pg = 0 to heap - 1 do
      write g p 2 pg
    done;
    for _ = 1 to 8 do
      write g p 1 (rand g data)
    done
  done;
  let setup = take g in
  for _ = 1 to forks do
    let parent = rand g parents in
    fork g ~parent ~child;
    for _ = 1 to child_touches do
      let x = Random.State.float g.rng 1.0 in
      if x < 0.7 then touch g child 2 (rand g heap) ~write:(chance g 0.35)
      else if x < 0.85 then touch g child 0 (rand g text) ~write:false
      else touch g child 1 (rand g data) ~write:(chance g 0.3)
    done;
    let pg = rand g heap in
    write g child 2 pg;
    read g child 2 pg;
    read g child 2 (rand g heap);
    read g child 1 (rand g data);
    mmap g child 3;
    for pg = 0 to buffer - 1 do
      touch g child 3 pg ~write:true
    done;
    write g child 3 (rand g buffer);
    munmap g child 3;
    exit_ g child;
    for _ = 1 to 4 do
      touch g parent 2 (rand g heap) ~write:true
    done;
    write g parent 2 (rand g heap)
  done;
  let stream = take g in
  for p = 0 to parents - 1 do
    for _ = 1 to 32 do
      read g p 2 (rand g heap)
    done;
    for _ = 1 to 8 do
      read g p 1 (rand g data);
      read g p 0 (rand g text)
    done
  done;
  {
    name = "fork-cow";
    config =
      { Machine.default_config with ram_pages = 16384; swap_pages = 16384; seed };
    files = [| ("/bin/prog", text + data) |];
    regions;
    slots = parents + 1;
    setup;
    stream;
    smp = None;
    checks = take g;
  }

(* -- paging -------------------------------------------------------------- *)

(* One process on a small machine: skewed random reads and writes over
   anonymous memory twice the size of RAM, interleaved with a sequential
   read of a shared file larger than RAM.  Dirty anonymous pages go out to
   swap while clean file pages are simply dropped. *)

let paging ~seed =
  let ram = 1024 in
  let anon = 2 * ram and file = ram + (ram / 4) in
  let ops = 40_000 and hot = anon / 5 in
  let regions =
    [|
      { npages = anon; share = Vt.Private; writable = true; src = Anon };
      { npages = file; share = Vt.Shared; writable = false;
        src = File { file = 0; off = 0 } };
    |]
  in
  let g = gen ~seed ~workload:"paging" ~regions ~slots:1 in
  (* The hot pages are scattered over the region, not one run. *)
  let perm = Array.init anon Fun.id in
  for i = anon - 1 downto 1 do
    let j = rand g (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  spawn g 0;
  mmap g 0 0;
  mmap g 0 1;
  for pg = 0 to anon - 1 do
    write g 0 0 pg
  done;
  let setup = take g in
  let cursor = ref 0 in
  for _ = 1 to ops do
    if chance g 0.25 then (
      touch g 0 1 !cursor ~write:false;
      cursor := (!cursor + 1) mod file)
    else
      let pg = if chance g 0.8 then perm.(rand g hot) else rand g anon in
      if chance g 0.01 then write g 0 0 pg
      else if chance g 0.01 then read g 0 0 pg
      else if chance g 0.002 then read g 0 1 (rand g file)
      else touch g 0 0 pg ~write:(chance g 0.3)
  done;
  let stream = take g in
  for _ = 1 to 128 do
    read g 0 0 (rand g anon)
  done;
  for _ = 1 to 16 do
    read g 0 1 (rand g file)
  done;
  {
    name = "paging";
    config =
      { Machine.default_config with ram_pages = ram; swap_pages = 8192; seed };
    files = [| ("/data/stream", file) |];
    regions;
    slots = 1;
    setup;
    stream;
    smp = None;
    checks = take g;
  }

(* -- smp-observed -------------------------------------------------------- *)

(* Workers forked off one parent run as Sim.Smp tasks on 4 virtual CPUs,
   on machines booted with event tracing on.  Per quantum a worker writes
   a few pages of its private copy-on-write region, reads the next slice of
   a shared file in step with its siblings, and writes its own slot of a
   shared anonymous scoreboard. *)

let smp_observed ~seed =
  let cpus = 4 and workers = 8 and steps = 300 in
  let priv = 256 and file = 768 and slice = 8 in
  let window = 4 and stride = 8 in
  let regions =
    [|
      { npages = priv; share = Vt.Private; writable = true; src = Anon };
      { npages = file; share = Vt.Shared; writable = false;
        src = File { file = 0; off = 0 } };
      { npages = workers * slice; share = Vt.Shared; writable = true;
        src = Anon };
    |]
  in
  let g = gen ~seed ~workload:"smp-observed" ~regions ~slots:(workers + 1) in
  spawn g 0;
  mmap g 0 0;
  mmap g 0 1;
  mmap g 0 2;
  for pg = 0 to priv - 1 do
    write g 0 0 pg
  done;
  for w = 1 to workers do
    fork g ~parent:0 ~child:w
  done;
  let setup = take g in
  let tasks =
    Array.init workers (fun w ->
        let p = w + 1 in
        Array.init steps (fun i ->
            for _ = 1 to window do
              touch g p 0 (rand g priv) ~write:true
            done;
            let base = i * stride mod file in
            for k = 0 to stride - 1 do
              touch g p 1 ((base + k) mod file) ~write:false
            done;
            write g p 2 ((w * slice) + (i mod slice));
            if chance g 0.05 then write g p 0 (rand g priv);
            if chance g 0.05 then read g p 0 (rand g priv);
            take g))
  in
  for p = 0 to workers do
    for _ = 1 to 16 do
      read g p 0 (rand g priv)
    done
  done;
  for pg = 0 to (workers * slice) - 1 do
    read g 0 2 pg
  done;
  {
    name = "smp-observed";
    config =
      {
        Machine.default_config with
        ram_pages = 640;
        swap_pages = 8192;
        ncpus = cpus;
        seed;
        trace_buf = Some 16384;
      };
    files = [| ("/data/smp", file) |];
    regions;
    slots = workers + 1;
    setup;
    stream = [||];
    smp = Some (cpus, tasks);
    checks = take g;
  }

let make name ~seed =
  match name with
  | "fork-cow" -> fork_cow ~seed
  | "paging" -> paging ~seed
  | "smp-observed" -> smp_observed ~seed
  | _ -> invalid_arg ("unknown workload " ^ name)

(** Kernel log ring buffer — the destination of [printk] and of the policy
    module's violation reports. Tests assert on its contents; the panic
    report carries its tail. *)

type level = Debug | Info | Warn | Err | Crit

type entry = { level : level; message : string; seq : int }

type t = {
  capacity : int;
  mutable entries : entry list;  (** newest first *)
  mutable next_seq : int;
}

let create ?(capacity = 1024) () = { capacity; entries = []; next_seq = 0 }

let log t level fmt =
  Printf.ksprintf
    (fun message ->
      let e = { level; message; seq = t.next_seq } in
      t.next_seq <- t.next_seq + 1;
      t.entries <-
        e
        ::
        (if List.length t.entries >= t.capacity then
           List.filteri (fun i _ -> i < t.capacity - 1) t.entries
         else t.entries))
    fmt

let printk t fmt = log t Info fmt

(** Newest-first list of entries. *)
let entries t = t.entries

(** Oldest-first tail of the last [n] messages, as the panic screen would
    show. *)
let tail t n =
  let rec take k = function
    | [] -> []
    | e :: rest -> if k = 0 then [] else e :: take (k - 1) rest
  in
  List.rev_map (fun e -> e.message) (take n t.entries)

let contains t substring =
  List.exists
    (fun e ->
      let len_s = String.length substring and len_m = String.length e.message in
      let rec at i =
        if i + len_s > len_m then false
        else if String.sub e.message i len_s = substring then true
        else at (i + 1)
      in
      at 0)
    t.entries

let clear t = t.entries <- []

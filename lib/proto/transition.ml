open Dex_mem

type verdict = {
  next : Directory.state option;
  reclaim : (int * Messages.revoke_mode) option;
  invalidate : int list;
  invalidate_home : bool;
  displaced : int list;
  had_copy : bool;
  wire_data : bool;
  noop : bool;
}

let holds state node =
  match state with
  | Directory.Exclusive owner -> owner = node
  | Directory.Shared readers -> Node_set.mem readers node

let decide state ~access ~requester ~home ~grant_without_data =
  let had_copy = holds state requester in
  let verdict ?next ?reclaim ?(invalidate = []) ?(invalidate_home = false)
      ?(displaced = []) ~noop () =
    {
      next;
      reclaim;
      invalidate;
      invalidate_home;
      displaced;
      had_copy;
      wire_data =
        requester <> home && ((not had_copy) || not grant_without_data);
      noop;
    }
  in
  match (access, state) with
  | _, Directory.Exclusive owner when owner = requester ->
      verdict ~noop:true ()
  | Perm.Read, Directory.Exclusive owner ->
      verdict ~noop:false
        ~reclaim:(owner, Messages.Downgrade)
        ~next:(Directory.Shared (Node_set.of_list [ owner; home; requester ]))
        ()
  | Perm.Read, Directory.Shared readers ->
      verdict ~noop:had_copy
        ~next:(Directory.Shared (Node_set.add readers requester))
        ()
  | Perm.Write, Directory.Exclusive owner ->
      verdict ~noop:false
        ~reclaim:(owner, Messages.Invalidate)
        ~displaced:[ owner ] ~next:(Directory.Exclusive requester) ()
  | Perm.Write, Directory.Shared readers ->
      let victims =
        List.filter
          (fun n -> n <> requester && n <> home)
          (Node_set.to_list readers)
      in
      verdict ~noop:false ~invalidate:victims
        ~invalidate_home:(Node_set.mem readers home && requester <> home)
        ~displaced:victims ~next:(Directory.Exclusive requester) ()

let drop state ~home ~node =
  match state with
  | _ when not (holds state node) -> None
  | Directory.Shared readers when Node_set.cardinal readers > 1 ->
      Some (Directory.Shared (Node_set.remove readers node))
  | Directory.Exclusive _ | Directory.Shared _ ->
      Some (Directory.Exclusive home)

(* Scratch directories for tests that write checkpoints. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(** [with_dir prefix f] runs [f] on a fresh empty directory and
    removes it afterwards. *)
let with_dir prefix f =
  let dir = Filename.temp_dir prefix ".d" in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

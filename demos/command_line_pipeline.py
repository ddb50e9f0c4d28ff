# The same workflow driven entirely through the command-line interface:
# prepare a frozen dataset bundle, train, evaluate the checkpoint, sweep a
# small grid, and export attribute predictions. Everything lands in a
# temporary directory; swap in your own interaction/attribute files to use
# it on real data (for MovieLens-1M, point --interactions at ratings.dat).

import tempfile
from pathlib import Path

from graphrec.cli import main
from graphrec.toy import write_toy_files

work = Path(tempfile.mkdtemp(prefix="graphrec-demo-"))
print(f"working in {work}")

# Write the toy data in the plain-text formats the loaders expect.
files = write_toy_files(work / "raw")
data_flags = ["--interactions", str(files["interactions"]),
              "--user-attrs", str(files["user_attrs"]),
              "--user-schema", str(files["user_schema"]),
              "--item-attrs", str(files["item_attrs"]),
              "--item-schema", str(files["item_schema"]),
              "--alpha", "0.5"]

# 1. Freeze the filtered/split/masked dataset so every later step sees the
#    exact same data regardless of flags.
assert main(["prepare-data", "--out", str(work / "prep")] + data_flags) == 0
bundle = str(work / "prep" / "dataset.bin")

# 2. Train. The run directory gets an echoed config.txt (the run is fully
#    reproducible from it), a checkpoint, the epoch log, and val/test reports.
assert main(["train", "--out", str(work / "run"), "--dataset", bundle,
             "--d", "8", "--d-a", "4", "--K", "1", "--gamma", "0.1",
             "--batch-size", "512", "--max-epochs", "20",
             "--early-stop-patience", "999", "--quiet"]) == 0
print((work / "run" / "report_test.txt").read_text())

# 3. Re-evaluate the saved checkpoint (prints the same report).
assert main(["evaluate", "--out", str(work / "eval"), "--dataset", bundle,
             "--checkpoint", str(work / "run" / "checkpoint.bin")]) == 0

# 4. Sweep depth; completed points are skipped if you rerun the command.
assert main(["sweep", "--out", str(work / "sweep"), "--dataset", bundle,
             "--d", "8", "--d-a", "4", "--gamma", "0.1",
             "--batch-size", "512", "--max-epochs", "10",
             "--early-stop-patience", "999", "--quiet",
             "--grid", "K=0,1,2"]) == 0
print((work / "sweep" / "summary.tsv").read_text())

# 5. Export per-entity predictions for every masked attribute slot.
assert main(["infer-attributes", "--out", str(work / "infer"),
             "--dataset", bundle,
             "--checkpoint", str(work / "run" / "checkpoint.bin")]) == 0
lines = (work / "infer" / "predictions.tsv").read_text().splitlines()
print("\n".join(lines[:5]) + f"\n... ({len(lines) - 1} predictions)")

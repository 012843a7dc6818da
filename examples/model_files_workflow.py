#!/usr/bin/env python
"""The model-file workflow: prototxt + binary weights, end to end.

Shows the Caffe-style artifact pipeline the offloading system ships:

1. build a model and write its ``deploy.prototxt`` + ``weights.bin``;
2. reload the pair into a bit-identical model;
3. pre-send the files to an edge server and offload an inference;
4. export the session timeline as a Chrome trace (chrome://tracing).

Run:  python examples/model_files_workflow.py [output_dir]
"""

import os
import sys
import tempfile

import numpy as np

from repro.eval.scenarios import Testbed
from repro.eval.traces import write_chrome_trace
from repro.nn.caffemodel import load_model_files, save_model_files
from repro.nn.zoo import smallnet
from repro.sim import SeededRng


def main(output_dir: str) -> None:
    os.makedirs(output_dir, exist_ok=True)

    # 1. Write the model files.
    model = smallnet(seed=42)
    prototxt_path, weights_path = save_model_files(model, output_dir)
    print(f"wrote {prototxt_path} "
          f"({os.path.getsize(prototxt_path)} B)")
    print(f"wrote {weights_path} "
          f"({os.path.getsize(weights_path) / 1e6:.2f} MB)")

    # 2. Reload and verify bit-identical inference.
    loaded = load_model_files(prototxt_path, weights_path)
    image = SeededRng(7, "wf").uniform_array((3, 32, 32), 0, 255)
    assert np.array_equal(loaded.inference(image), model.inference(image))
    print("reloaded model reproduces the original's inference exactly")

    # 3. Offload an inference with the model pre-sent as files.
    result = Testbed().run_offload("smallnet", wait_for_ack=True)
    print(f"offloaded inference: {result.total_seconds * 1000:.1f} ms "
          f"(correct: {result.correct})")

    # 4. Chrome trace of the timeline.
    trace_path = write_chrome_trace(
        os.path.join(output_dir, "offload_trace.json"), [result]
    )
    print(f"timeline trace written to {trace_path} — open in chrome://tracing")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="repro-"))

#!/usr/bin/env python
"""Privacy demo: partial inference hides the input; withholding the front
model defeats feature inversion.

Three measurements on a small CNN (so the attack runs in seconds):

1. A *full* offloading snapshot contains the user's input image; a
   *partial* inference snapshot contains only denatured feature data.
2. The denaturing score of the feature data vs the raw input.
3. The hill-climbing inversion attack [17]: with the front model it
   reconstructs the input well; with only a surrogate (the paper's
   defense: the front model is never pre-sent) it gets nowhere.

Run:  python examples/privacy_partial_inference.py
"""

from repro.core.privacy import denaturing_score, inversion_study, snapshot_exposes_input
from repro.core.snapshot import capture_snapshot
from repro.nn.zoo import smallnet, tinynet
from repro.sim import SeededRng
from repro.web import WebRuntime
from repro.web.app import make_inference_app, make_partial_inference_app
from repro.web.events import Event
from repro.web.values import TypedArray


def snapshot_for(app, pixels, event):
    runtime = WebRuntime("client")
    runtime.load_app(app)
    runtime.globals["pending_pixels"] = pixels
    runtime.dispatch("click", "load_btn")
    if event.event_type == "front_complete":
        runtime.events.set_interceptor(lambda ev: None)
        runtime.events.mark_offload_event("front_complete")
        runtime.dispatch("click", "infer_btn")  # front() runs locally
    return capture_snapshot(runtime, event)


def main() -> None:
    rng = SeededRng(0, "privacy-demo")
    model = smallnet()
    pixels = TypedArray(rng.uniform_array((3, 32, 32), 0, 255))

    # 1. Input exposure: full vs partial offloading snapshots.
    full_snapshot = snapshot_for(
        make_inference_app(model),
        pixels,
        Event("click", "infer_btn"),
    )
    point = model.network.point_by_label("1st_pool")
    front, rear = model.split(point.index)
    partial_snapshot = snapshot_for(
        make_partial_inference_app(front, rear),
        pixels,
        Event("front_complete", "infer_btn"),
    )
    print("input exposure")
    print(f"  full offload snapshot exposes input   : "
          f"{snapshot_exposes_input(full_snapshot, pixels.data)}")
    print(f"  partial inference snapshot exposes it : "
          f"{snapshot_exposes_input(partial_snapshot, pixels.data)}")

    # 2. How denatured is the feature data?
    feature = front.inference(pixels.data)
    print(f"\ndenaturing score of 1st_pool feature vs input: "
          f"{denaturing_score(pixels.data, feature):.2f}  (1.0 = unrecognizable)")

    # 3. The inversion attack, with and without the true front model.
    attack_model = tinynet()
    attack_point = attack_model.network.point_by_label("1st_conv")
    true_front, _ = attack_model.split(attack_point.index)
    surrogate_front, _ = tinynet(seed=99).split(attack_point.index)
    image = rng.uniform_array((1, 8, 8), 0, 255)
    study = inversion_study(true_front, surrogate_front, image, iterations=400)
    print("\nhill-climbing inversion attack (tinynet, 400 iterations)")
    print(f"  attacker WITH the front model : feature loss reduced "
          f"{study.with_front.loss_reduction:.0%}")
    print(f"  attacker WITHOUT it (surrogate): feature loss reduced "
          f"{study.without_front.loss_reduction:.0%}")
    print(f"  defense effective              : {study.defense_effective}")
    print("\nThis is why the client pre-sends only the REAR part of the model.")


if __name__ == "__main__":
    main()

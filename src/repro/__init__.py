"""repro — snapshot-based computation offloading for ML web apps.

A complete, executable reproduction of "Computation Offloading for Machine
Learning Web Apps in the Edge Server Environment" (Jeong, Jeong, Lee, Moon
— ICDCS 2018), built in Python on a discrete-event simulator.

Subpackages:

* :mod:`repro.sim` — discrete-event simulation kernel (virtual clock,
  processes, events).
* :mod:`repro.netsim` — links/channels/topologies with netem-style shaping
  and handover.
* :mod:`repro.devices` — calibrated device models and Neurosurgeon-style
  latency predictors.
* :mod:`repro.nn` — a numpy DNN inference framework (the CaffeJS analog)
  with a faithful model zoo, prototxt/weight-blob file formats and
  splitting.
* :mod:`repro.web` — a miniature browser: heap, DOM, events, app scripts.
* :mod:`repro.core` — the paper's contribution: snapshot capture/restore,
  the offloading protocol (pre-sending, partial inference, session cache,
  retransmission), partition optimization, privacy analysis, baselines.
* :mod:`repro.vmsynth` — VM-overlay synthesis for on-demand installation.
* :mod:`repro.eval` — the experiment harness regenerating every figure and
  table of the paper plus the ablation studies.

Entry points: ``python -m repro --help`` or the :mod:`repro.eval` modules;
see README.md for a tour and EXPERIMENTS.md for paper-vs-measured results.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

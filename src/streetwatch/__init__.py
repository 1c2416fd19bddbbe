"""streetwatch: post-detection hazard pipeline.

Turns per-frame object detections into monocular distance estimates,
cross-frame identities, moving directions and staged proximity alarms,
with a synthetic-scenario simulator and an evaluation harness to match.

Each public name is imported from its module, such as
`streetwatch.pipeline.Pipeline`; importing the package loads no module.
"""
__version__ = "0.1.0"

"""When is the motion pinned down, and when is it ambiguous?

Depth errors that keep the self-expression residual unchanged satisfy a
linear system A l = b per point; the condition number of A says how far
the capture geometry is from ambiguity.  Two experiments:

1. One handheld camera vs four interleaved static cameras on the same
   motion.  A single viewpoint leaves near-parallel rays and a single
   shared support pattern, so A is nearly singular; interleaving cameras
   fixes it.
2. Cameras alternating in blocks of N samples.  The longer one camera
   holds, the closer its consecutive rays are to parallel and the worse
   the conditioning, monotonically in N.
3. Four interleaved cameras that miss a growing share of observations.
   Each point is analysed on the frames that see it, its missing frames
   eliminated from the system as the solver's X-step does; fewer rays
   leave a worse conditioned system.
"""

import numpy as np

from unsync3d.analysis import analyze_scene
from unsync3d.geometry import compute_rays, frame_video_ids
from unsync3d.simplex import self_express, support_mask
from unsync3d.synth import CorruptionSpec, RigSpec, generate, procedural_motion

motion = procedural_motion(point_count=2, sample_count=120, seed=1)


def conditions(scene):
    rays = compute_rays(scene.frames, scene.observations)
    ids = frame_video_ids(scene.frames)
    # off-diagonal mask: same-video atoms stay visible to the analysis,
    # they are exactly what makes a single camera ambiguous
    W = self_express(scene.truth, support_mask(ids, exclude_same_video=False))
    return [r.system_condition for r in analyze_scene(rays, W, scene.truth)]


def median_condition(*scenes):
    return float(np.median([c for scene in scenes for c in conditions(scene)]))


handheld = generate(
    motion,
    RigSpec(camera_count=1, mode="handheld", jitter_sigma=10.0, distance_factor=4.0),
    CorruptionSpec(seed=1, consecutive_exclusion=False),
)
interleaved = generate(
    motion, RigSpec(camera_count=4, distance_factor=4.0), CorruptionSpec(seed=1)
)

c_hand = median_condition(handheld)
c_inter = median_condition(interleaved)
print("median system condition per point")
print(f"  one handheld camera:       {c_hand:.3e}")
print(f"  four interleaved cameras:  {c_inter:.3e}")
print(f"  ratio:                     {c_hand / c_inter:.0f}x")

print("\ncameras alternating in blocks of N samples:")
print("  N   condition")
for block in (1, 2, 4, 8, 16):
    scene = generate(
        motion,
        RigSpec(camera_count=4, distance_factor=4.0),
        CorruptionSpec(seed=1),
        block_length=block,
    )
    print(f"  {block:<3d} {median_condition(scene):.3e}")

print(
    "\nCondition grows with block length: frames inside one block add no"
    "\nviewpoint diversity, so reconstructability decays toward the"
    "\nsingle-camera case."
)

print("\nfour interleaved cameras missing a share of observations (seeds 1-3):")
print("  miss  condition")
for rate in (0.0, 0.1, 0.2, 0.3, 0.5):
    scenes = [
        generate(
            motion,
            RigSpec(camera_count=4, distance_factor=4.0),
            CorruptionSpec(seed=seed, miss_rate=rate),
        )
        for seed in (1, 2, 3)
    ]
    print(f"  {rate:<5.1f} {median_condition(*scenes):.3e}")

print(
    "\nCondition grows with the miss rate: a point's unobserved frames carry"
    "\nno ray, so its depths are pinned by fewer viewpoints."
)

import json

import numpy as np
import pytest

from hieract.descriptors import GEO_DIM, build_descriptors
from hieract.skeleton import (KINECT20, ActionInterval, JointSchema,
                              ParseError, RegionSpec, SchemaError,
                              SkeletonSequence, load_annotations, load_labels,
                              parse_skeleton, save_annotations, save_labels,
                              validate_annotations)


def _stream(frames, schema="kinect20", video_id="v", fps=30):
    lines = [json.dumps({"schema": schema, "video_id": video_id, "fps": fps})]
    lines += [json.dumps(f) for f in frames]
    return "\n".join(lines) + "\n"


class TestParse:
    def test_single_zero_frame(self):
        seq = parse_skeleton(_stream(
            [{"t": 0, "joints": [[0.0, 0.0, 0.0]] * 20}]))
        assert seq.num_frames == 1
        assert seq.num_joints == 20

    def test_frames_sorted_ascending(self):
        frame = [[0.0, 0.0, 0.0]] * 20
        frame1 = [[1.0, 0.0, 0.0]] * 20
        seq = parse_skeleton(_stream([{"t": 1, "joints": frame1},
                                      {"t": 0, "joints": frame}]))
        assert seq.joints[0, 0, 0] == 0.0
        assert seq.joints[1, 0, 0] == 1.0

    def test_toy_fixture_values(self, toy_skeleton_text):
        seq = parse_skeleton(toy_skeleton_text)
        assert seq.num_frames == 3
        head = seq.joints[0, KINECT20.joint_index("head")]
        np.testing.assert_allclose(head, (0.0, 1.8, 0.0))

    def test_duplicate_frame_rejected(self):
        frame = [[0.0, 0.0, 0.0]] * 20
        with pytest.raises(ParseError, match="line 4: frame t=1 is repeated"):
            parse_skeleton(_stream([{"t": 1, "joints": frame},
                                    {"t": 0, "joints": frame},
                                    {"t": 1, "joints": frame}]))

    def test_missing_frame_rejected(self):
        frame = [[0.0, 0.0, 0.0]] * 20
        with pytest.raises(ParseError,
                           match="line 3: frame t=1 is missing before "
                                 "frame t=2"):
            parse_skeleton(_stream([{"t": 0, "joints": frame},
                                    {"t": 2, "joints": frame}]))

    def test_malformed_line_reports_lineno(self):
        text = _stream([{"t": 0, "joints": [[0, 0, 0]] * 20}]) + "{broken\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_skeleton(text)

    def test_inconsistent_joint_count(self):
        with pytest.raises(SchemaError, match="expected 20 joints"):
            parse_skeleton(_stream([{"t": 0, "joints": [[0, 0, 0]] * 7}]))

    def test_nonfinite_coordinates_rejected(self):
        joints = [[0.0, 0.0, 0.0]] * 19 + [[float("nan"), 0.0, 0.0]]
        with pytest.raises(SchemaError, match="non-finite"):
            parse_skeleton(_stream([{"t": 0, "joints": joints}]))

    def test_roundtrip_identity(self, toy_skeleton_text):
        def serialize_skeleton(seq):
            return _stream([{"t": t, "joints": seq.joints[t].tolist()}
                            for t in range(seq.num_frames)],
                           seq.schema, seq.video_id, seq.fps)

        seq = parse_skeleton(toy_skeleton_text)
        again = parse_skeleton(serialize_skeleton(seq))
        assert again.video_id == seq.video_id
        assert again.schema == seq.schema
        assert again.fps == seq.fps
        np.testing.assert_array_equal(again.joints, seq.joints)


class TestSplitRegions:
    """A schema splits the skeleton into regions, each a set of joint names
    that descriptors read straight from the sequence's joint array."""

    def test_default_schema_gives_four_subsets(self, toy_skeleton_text):
        seq = parse_skeleton(toy_skeleton_text)
        assert KINECT20.num_regions == 4
        assert build_descriptors(seq).shape == (3, 4, GEO_DIM)

    def test_left_arm_contains_expected_joints(self):
        left_arm = KINECT20.regions[0]
        assert set(left_arm.joints) >= {"left_wrist", "left_elbow",
                                        "left_shoulder"}
        # shared joints are read by the segments but owned by no region
        read = {j for segment in left_arm.segments for j in segment}
        assert read >= {"head", "neck", "torso"}
        assert not read & {"head", "neck", "torso"} & set(left_arm.joints)

    def test_owned_joints_partition(self):
        owned = [j for region in KINECT20.regions for j in region.joints]
        assert len(owned) == len(set(owned))
        shared = {"head", "neck", "torso", "hip_center"}
        assert set(owned) | shared == set(KINECT20.joint_names)
        assert not set(owned) & shared

    def test_single_region_schema(self):
        schema = JointSchema(
            name="all_in_one",
            joint_names=KINECT20.joint_names,
            regions=(RegionSpec(
                name="body",
                joints=KINECT20.joint_names,
                segments=KINECT20.regions[0].segments,
                plane=KINECT20.regions[0].plane),),
        )
        rng = np.random.default_rng(3)
        seq = SkeletonSequence(video_id="v", schema="all_in_one",
                               joints=rng.normal(size=(2, 20, 3)))
        x = build_descriptors(seq, schema)
        assert x.shape == (2, 1, GEO_DIM)
        np.testing.assert_array_equal(
            x[:, 0], build_descriptors(seq, KINECT20)[:, 0])

    def test_wrong_joint_count_rejected(self):
        seq = SkeletonSequence(video_id="v", schema="kinect20",
                               joints=np.zeros((1, 5, 3)))
        with pytest.raises(SchemaError, match="5 joints.*defines 20"):
            build_descriptors(seq)

    @pytest.mark.parametrize("where", ["segment", "plane"])
    def test_region_naming_an_undefined_joint_rejected(self, where):
        arm = KINECT20.regions[0]
        segments, plane = arm.segments, arm.plane
        if where == "segment":
            segments = segments[:-1] + (("neck", "torsoo"),)
        else:
            plane = plane[:2] + ("left_wristt",)
        with pytest.raises(SchemaError, match="unknown joint"):
            JointSchema(name="typo", joint_names=KINECT20.joint_names,
                        regions=(RegionSpec(name="arm", joints=arm.joints,
                                            segments=segments,
                                            plane=plane),))


class TestValidateAnnotations:
    def test_same_region_overlap_flagged(self):
        intervals = [ActionInterval(0, 0, 10, region=1),
                     ActionInterval(1, 5, 15, region=1)]
        assert len(validate_annotations(intervals, 30)) == 1

    def test_unknown_regions_not_checkable(self):
        intervals = [ActionInterval(0, 0, 10, region=-1),
                     ActionInterval(1, 5, 15, region=-1)]
        assert validate_annotations(intervals, 30) == []

    def test_disjoint_intervals_clean(self):
        intervals = [ActionInterval(0, 0, 5, region=0),
                     ActionInterval(1, 6, 10, region=0),
                     ActionInterval(0, 11, 20, region=0)]
        assert validate_annotations(intervals, 30) == []

    def test_out_of_range_interval_flagged(self):
        intervals = [ActionInterval(0, 0, 40, region=0)]
        assert len(validate_annotations(intervals, 30)) == 1


class TestAnnotationFiles:
    def test_annotation_roundtrip(self):
        intervals = {"a": [ActionInterval(0, 0, 10, region=-1),
                           ActionInterval(2, 11, 20, region=3)],
                     "b": [ActionInterval(1, 5, 9, region=0)]}
        text = save_annotations(intervals)
        back = load_annotations(text)
        assert back == intervals

    def test_labels_roundtrip(self):
        labels = {"a": 0, "b": 3}
        assert load_labels(save_labels(labels)) == labels

    def test_missing_columns_rejected(self):
        with pytest.raises(ParseError):
            load_annotations("video_id,action_id\nv,0\n")

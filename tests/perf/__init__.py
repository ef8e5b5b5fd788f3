"""The codec memo and the pinned fingerprint scenarios: correctness, not speed."""

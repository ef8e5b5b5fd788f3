"""The codec memo and the scenario table: correctness, not speed."""

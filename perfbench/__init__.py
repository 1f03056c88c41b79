"""dp5a2 benchmark harness; see README.md."""

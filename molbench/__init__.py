"""The molvae benchmark; see README.md and run.py."""

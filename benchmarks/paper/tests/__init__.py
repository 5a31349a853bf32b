"""Tests of the paper-table projection (:mod:`paper`)."""

"""Sample-based MPC collision avoidance planner and scenario simulator."""
